//! Kernel error types.

use core::fmt;

use serde::Serialize;

use pthammer_types::VirtAddr;

/// Errors returned by the kernel substrate's system-call surface.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum KernelError {
    /// Physical memory is exhausted (or the placement policy refused).
    OutOfMemory,
    /// The process id does not exist.
    NoSuchProcess(u32),
    /// The virtual address is not covered by any mapping of the process.
    BadAddress(VirtAddr),
    /// A superpage mapping was requested but superpages are disabled.
    SuperpagesDisabled,
    /// Invalid argument to a system call.
    InvalidArgument(String),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::OutOfMemory => write!(f, "out of physical memory"),
            KernelError::NoSuchProcess(pid) => write!(f, "no such process: {pid}"),
            KernelError::BadAddress(va) => write!(f, "bad address: {va}"),
            KernelError::SuperpagesDisabled => write!(f, "superpages are disabled on this system"),
            KernelError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            KernelError::OutOfMemory.to_string(),
            "out of physical memory"
        );
        assert!(KernelError::NoSuchProcess(7).to_string().contains('7'));
        assert!(KernelError::BadAddress(VirtAddr::new(0x123))
            .to_string()
            .contains("bad address"));
        assert!(KernelError::SuperpagesDisabled
            .to_string()
            .contains("superpages"));
        assert!(KernelError::InvalidArgument("x".into())
            .to_string()
            .contains('x'));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&KernelError::OutOfMemory);
    }
}
