//! The host CPU: instruction rate and memory bandwidth.

use hni_sim::Duration;

/// A workstation-class CPU.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostCpu {
    /// Sustained millions of instructions per second.
    pub mips: f64,
    /// Memory-to-memory copy bandwidth, bytes/second (the number that
    /// bounds every data-touching operation: copies, checksums in
    /// software, SAR done on the host).
    pub copy_bytes_per_second: f64,
}

impl HostCpu {
    /// A DECstation-5000-class workstation: ~25 MIPS, ~50 MB/s copy.
    pub fn workstation() -> Self {
        HostCpu {
            mips: 25.0,
            copy_bytes_per_second: 50e6,
        }
    }

    /// A generously provisioned server of the same era.
    pub fn server() -> Self {
        HostCpu {
            mips: 100.0,
            copy_bytes_per_second: 150e6,
        }
    }

    /// Time to execute `instr` instructions.
    pub fn instr_time(&self, instr: u64) -> Duration {
        Duration::from_s_f64(instr as f64 / (self.mips * 1e6))
    }

    /// Time to copy `bytes` bytes memory-to-memory.
    pub fn copy_time(&self, bytes: usize) -> Duration {
        Duration::from_s_f64(bytes as f64 / self.copy_bytes_per_second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_time_arithmetic() {
        let cpu = HostCpu::workstation();
        // 25 MIPS → 1000 instructions in 40 µs.
        assert_eq!(cpu.instr_time(1000), Duration::from_us(40));
    }

    #[test]
    fn copy_time_arithmetic() {
        let cpu = HostCpu::workstation();
        // 50 MB/s → 9180 bytes in 183.6 µs.
        let t = cpu.copy_time(9180);
        assert!((t.as_us_f64() - 183.6).abs() < 0.01, "{t}");
    }

    #[test]
    fn server_is_faster() {
        let w = HostCpu::workstation();
        let s = HostCpu::server();
        assert!(s.instr_time(1000) < w.instr_time(1000));
        assert!(s.copy_time(1000) < w.copy_time(1000));
    }
}
