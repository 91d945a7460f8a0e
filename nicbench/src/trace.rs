//! Spans for the traced run. The benchmark times each layer from
//! outside, around calls into that layer's public functions; nothing
//! inside the program is instrumented. Spans stay in memory and are
//! written out when the run ends.

use crate::alloc;
use std::io::Write;
use std::time::Instant;

/// Everything a span can be charged to. The `NIC_*` ids are the calls
/// a step makes into `Nic`; the rest are layer functions (re-driven by
/// the replica) or simulator entry points.
pub const NAMES: [&str; 20] = [
    "step",
    "nic.send",
    "nic.frame_tick",
    "nic.receive_line_octets",
    "nic.rx_burst",
    "nic.poll",
    "aal5.segment",
    "atm.scramble",
    "sonet.frame_build",
    "sonet.align",
    "sonet.frame_parse",
    "atm.delineate",
    "atm.descramble",
    "core.cam_lookup",
    "aal5.reassemble",
    "sonet.frame_scramble",
    "txsim",
    "e2esim",
    "e2esim_faulted",
    "transport",
];
pub const STEP: u8 = 0;
pub const NIC_SEND: u8 = 1;
pub const NIC_FRAME_TICK: u8 = 2;
pub const NIC_RECEIVE: u8 = 3;
pub const NIC_RX_BURST: u8 = 4;
pub const NIC_POLL: u8 = 5;
pub const AAL5_SEGMENT: u8 = 6;
pub const ATM_SCRAMBLE: u8 = 7;
pub const SONET_FRAME_BUILD: u8 = 8;
pub const SONET_ALIGN: u8 = 9;
pub const SONET_FRAME_PARSE: u8 = 10;
pub const ATM_DELINEATE: u8 = 11;
pub const ATM_DESCRAMBLE: u8 = 12;
pub const CORE_CAM_LOOKUP: u8 = 13;
pub const AAL5_REASSEMBLE: u8 = 14;
pub const SONET_FRAME_SCRAMBLE: u8 = 15;
pub const TXSIM: u8 = 16;
pub const E2ESIM: u8 = 17;
pub const E2ESIM_FAULTED: u8 = 18;
pub const TRANSPORT: u8 = 19;

/// The layer functions a cell crosses, in the order it crosses them:
/// the rows of the per-cell budget table.
pub const LAYERS: [u8; 9] = [
    AAL5_SEGMENT,
    ATM_SCRAMBLE,
    SONET_FRAME_BUILD,
    SONET_ALIGN,
    SONET_FRAME_PARSE,
    ATM_DELINEATE,
    ATM_DESCRAMBLE,
    CORE_CAM_LOOKUP,
    AAL5_REASSEMBLE,
];
/// Layers that replicate the transmit half of the `Nic` calls.
pub const TX_LAYERS: [u8; 3] = [AAL5_SEGMENT, ATM_SCRAMBLE, SONET_FRAME_BUILD];

/// Spans kept in memory (and written out); later spans still count
/// toward the per-layer totals.
pub const MAX_SPANS: usize = 1 << 18;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Step the call belongs to (the spans of one step share it).
    pub step: u32,
    /// What was called ([`NAMES`] index).
    pub id: u8,
    /// The call this one replicates or is part of ([`NAMES`] index).
    pub parent: u8,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Heap allocations made inside the call.
    pub allocs: u64,
}

/// Span recorder. A disabled tracer runs the closures untimed, so the
/// same step code serves traced and untraced passes.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    step: u32,
    spans: Vec<Span>,
    dropped: u64,
    ns: [u64; NAMES.len()],
    allocs: [u64; NAMES.len()],
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            t0: Instant::now(),
            step: 0,
            spans: Vec::new(),
            dropped: 0,
            ns: [0; NAMES.len()],
            allocs: [0; NAMES.len()],
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start the next step: later spans carry its id.
    pub fn next_step(&mut self) {
        self.step += 1;
    }

    /// Run `f` as a span `id` under `parent`.
    #[inline]
    pub fn time<R>(&mut self, id: u8, parent: u8, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let a0 = alloc::count();
        let start = Instant::now();
        let r = f();
        let dur = start.elapsed();
        let allocs = alloc::count() - a0;
        let dur_ns = dur.as_nanos() as u64;
        self.ns[id as usize] += dur_ns;
        self.allocs[id as usize] += allocs;
        if self.spans.len() == MAX_SPANS {
            self.dropped += 1;
            return r;
        }
        self.spans.push(Span {
            step: self.step,
            id,
            parent,
            start_ns: start.duration_since(self.t0).as_nanos() as u64,
            dur_ns,
            allocs,
        });
        r
    }

    /// Total ns charged to `id`.
    pub fn ns(&self, id: u8) -> u64 {
        self.ns[id as usize]
    }

    /// Total allocations charged to `id`.
    pub fn allocs(&self, id: u8) -> u64 {
        self.allocs[id as usize]
    }

    /// Spans kept.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans timed but not kept, past [`MAX_SPANS`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every span as a tab-separated line to `path`.
    pub fn write_spans(&self, path: &std::path::Path) -> Result<(), String> {
        let err = |e: std::io::Error| format!("writing spans to {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(err)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
        writeln!(w, "step\tname\tparent\tstart_ns\tdur_ns\tallocs").map_err(err)?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.step,
                NAMES[s.id as usize],
                NAMES[s.parent as usize],
                s.start_ns,
                s.dur_ns,
                s.allocs
            )
            .map_err(err)?;
        }
        w.flush().map_err(err)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}
