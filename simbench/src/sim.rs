//! Simulated statistics of an episode: what the correctness gate checks.
//!
//! Every value here is a function of the simulation alone (virtual time,
//! simulated counters), never of host time, so two episodes with the same
//! workload and seed must agree bit for bit. A change meant only to make
//! the simulator faster or smaller must leave all of them unchanged.

use eagletree_controller::OpClass;
use eagletree_os::Os;

/// Named simulated statistics, in a fixed order.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    pub values: Vec<(String, f64)>,
}

impl SimStats {
    /// The value of statistic `name`. Panics on an unknown name, which is
    /// a bug in this benchmark.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no simulated statistic `{name}`"))
            .1
    }

    /// FNV-1a over every name and value bit pattern: `sim_digest`.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (name, v) in &self.values {
            eat(name.as_bytes());
            eat(&v.to_bits().to_le_bytes());
        }
        h
    }

    /// Statistics whose values differ from `other`'s (or are missing from
    /// it), each as `name: this vs other`.
    pub fn moved(&self, other: &SimStats) -> Vec<String> {
        let mut out = Vec::new();
        for (name, v) in &self.values {
            match other.values.iter().find(|(n, _)| n == name) {
                Some((_, w)) if v.to_bits() == w.to_bits() => {}
                Some((_, w)) => out.push(format!("{name}: {v} vs {w}")),
                None => out.push(format!("{name}: {v} vs (absent)")),
            }
        }
        for (name, w) in &other.values {
            if !self.values.iter().any(|(n, _)| n == name) {
                out.push(format!("{name}: (absent) vs {w}"));
            }
        }
        out
    }
}

/// Cumulative simulated work counters of every layer, read from the
/// layers' public getters. The episode reports their deltas over the
/// measured phase.
pub fn layer_counters(os: &Os) -> Vec<(&'static str, u64)> {
    let c = os.controller();
    let s = c.stats();
    let a = c.array().counters();
    let issued = |internal: bool| -> u64 {
        OpClass::ALL
            .iter()
            .filter(|k| k.is_internal() == internal)
            .map(|&k| s.issued[k as usize])
            .sum()
    };
    let dftl = c.dftl_stats().unwrap_or_default();
    let rel = c.reliability();
    let obs = os.obs();
    vec![
        ("events", os.events_simulated()),
        ("queue_ops", os.queue_ops()),
        ("controller_events", c.events_processed()),
        ("issued_app", issued(false)),
        ("issued_internal", issued(true)),
        ("gc_moves", s.gc_moves),
        ("gc_stale", s.gc_stale),
        ("gc_erases", s.gc_erases),
        ("mapping_fetches", s.mapping_fetches),
        ("mapping_writebacks", s.mapping_writebacks),
        ("cmt_hits", dftl.cmt_hits),
        ("cmt_pending_hits", dftl.pending_hits),
        ("cmt_misses", dftl.misses),
        ("flash_reads", a.reads),
        ("flash_programs", a.programs),
        ("flash_erases", a.erases),
        ("flash_transfers", a.transfers),
        ("flash_copybacks", a.copybacks),
        ("fault_reads_sampled", rel.map_or(0, |r| r.reads_sampled)),
        ("fault_read_retries", rel.map_or(0, |r| r.read_retries)),
        ("fault_program_fails", rel.map_or(0, |r| r.program_fails)),
        ("fault_grown_bad", rel.map_or(0, |r| r.grown_bad_blocks)),
        (
            "spans_closed",
            obs.map_or(0, |o| o.closed_count() as u64 + o.dropped()),
        ),
        ("spans_dropped", obs.map_or(0, |o| o.dropped())),
        ("timeline_rows", os.timeline().map_or(0, |t| t.len() as u64)),
    ]
}

/// Reference statistics recorded at the default seed and benchmark
/// sizes: `workload statistic value` lines. Regenerate them with
/// `--print-reference`; changing them is a benchmark change of its own.
const REFERENCE: &str = include_str!("../reference.txt");

/// The recorded reference for `workload`, if any.
pub fn reference(workload: &str) -> Option<SimStats> {
    let mut values = Vec::new();
    for line in REFERENCE.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut f = line.split_whitespace();
        let (Some(w), Some(name), Some(v)) = (f.next(), f.next(), f.next()) else {
            panic!("malformed reference line `{line}`");
        };
        if w != workload {
            continue;
        }
        let v: f64 = v
            .parse()
            .unwrap_or_else(|e| panic!("reference line `{line}`: {e}"));
        values.push((name.to_string(), v));
    }
    (!values.is_empty()).then_some(SimStats { values })
}

/// `stats` as reference lines for `workload`, in the format `reference`
/// reads.
pub fn reference_lines(workload: &str, stats: &SimStats) -> String {
    let mut out = String::new();
    for (name, v) in &stats.values {
        out.push_str(&format!("{workload} {name} {v:?}\n"));
    }
    out
}
