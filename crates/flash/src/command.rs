//! Flash command set.
//!
//! The controller drives the array with four operations. `ReadStart` /
//! `TransferOut` are the two halves of a page read: the array read leaves
//! the data in the LUN's page register, and a later channel transfer brings
//! it to the controller. Splitting them is what lets the scheduler overlap
//! array reads on one LUN with transfers from another — the interleaving
//! the paper's scheduler experiments manipulate.

use crate::address::{BlockAddr, PhysicalAddr};

/// One operation the controller can issue to the flash array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashCommand {
    /// Start an array read of a page; data lands in the LUN register.
    ReadStart(PhysicalAddr),
    /// Move previously-read data from the LUN register over the channel.
    TransferOut(PhysicalAddr),
    /// Program a page (command + data in + array program).
    Program(PhysicalAddr),
    /// Erase a whole block.
    Erase(BlockAddr),
    /// Copy a page to another page in the same plane without moving data
    /// over the channel.
    CopyBack {
        /// Source page (must be readable).
        from: PhysicalAddr,
        /// Destination page (must be the next free page of its block, in
        /// the same plane as `from`).
        to: PhysicalAddr,
    },
}

impl FlashCommand {
    /// The channel this command occupies.
    pub fn channel(&self) -> u32 {
        match self {
            FlashCommand::ReadStart(a)
            | FlashCommand::TransferOut(a)
            | FlashCommand::Program(a) => a.channel,
            FlashCommand::Erase(b) => b.channel,
            FlashCommand::CopyBack { from, .. } => from.channel,
        }
    }

    /// The LUN (linear within its channel) this command occupies.
    pub fn lun(&self) -> u32 {
        match self {
            FlashCommand::ReadStart(a)
            | FlashCommand::TransferOut(a)
            | FlashCommand::Program(a) => a.lun,
            FlashCommand::Erase(b) => b.lun,
            FlashCommand::CopyBack { from, .. } => from.lun,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(channel: u32, lun: u32) -> PhysicalAddr {
        PhysicalAddr {
            channel,
            lun,
            plane: 0,
            block: 0,
            page: 0,
        }
    }

    #[test]
    fn commands_expose_their_resources() {
        assert_eq!(FlashCommand::ReadStart(addr(2, 1)).channel(), 2);
        assert_eq!(FlashCommand::ReadStart(addr(2, 1)).lun(), 1);
        assert_eq!(
            FlashCommand::Erase(addr(3, 0).block_addr()).channel(),
            3
        );
        let cb = FlashCommand::CopyBack {
            from: addr(1, 1),
            to: PhysicalAddr {
                channel: 1,
                lun: 1,
                plane: 0,
                block: 5,
                page: 0,
            },
        };
        assert_eq!(cb.channel(), 1);
        assert_eq!(cb.lun(), 1);
    }
}
