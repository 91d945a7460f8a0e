//! JSONL export: one JSON object per trace event, newline-separated.
//!
//! Schema (fields with sentinel [`NO_ID`] are omitted):
//!
//! ```json
//! {"t_ps":1234,"stage":"tx.seg","ph":"B","vc":64,"pkt":0,"cell":3,"arg":48}
//! ```
//!
//! * `t_ps` — simulated time in picoseconds (u64)
//! * `stage` — hierarchical stage name ([`Stage::name`](crate::Stage::name))
//! * `ph` — `"B"` span begin, `"E"` span end, `"I"` instant
//! * `vc` — packed VPI/VCI (`VcId::cam_key`), when known
//! * `pkt` — packet sequence id (workload index), when known
//! * `cell` — cell sequence id, when known
//! * `arg` — stage-specific argument, omitted when zero

use crate::event::{TraceEvent, NO_ID};
use crate::json;
use std::fmt::Write as _;

/// Append one event as a JSON line (no trailing newline).
pub fn write_event(out: &mut String, ev: &TraceEvent) {
    // Stage names are static identifiers today, but they pass through
    // the shared escaper anyway: every JSON string in the workspace
    // goes through one implementation (see `json`).
    let _ = write!(
        out,
        "{{\"t_ps\":{},\"stage\":{},\"ph\":\"{}\"",
        ev.time.as_ps(),
        json::quote(ev.stage.name()),
        ev.phase.code()
    );
    if ev.vc != NO_ID {
        let _ = write!(out, ",\"vc\":{}", ev.vc);
    }
    if ev.pkt != NO_ID {
        let _ = write!(out, ",\"pkt\":{}", ev.pkt);
    }
    if ev.cell != NO_ID {
        let _ = write!(out, ",\"cell\":{}", ev.cell);
    }
    if ev.arg != 0 {
        let _ = write!(out, ",\"arg\":{}", ev.arg);
    }
    out.push('}');
}

/// Render a whole stream as JSONL (one event per line).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for ev in events {
        write_event(&mut out, ev);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stage;
    use hni_sim::Time;

    #[test]
    fn full_event_renders_all_fields() {
        let ev = TraceEvent::enter(Time::from_ns(2), Stage::RxCell)
            .vc(0x40)
            .pkt(1)
            .cell(9)
            .arg(48);
        let mut s = String::new();
        write_event(&mut s, &ev);
        assert_eq!(
            s,
            "{\"t_ps\":2000,\"stage\":\"rx.cell\",\"ph\":\"B\",\"vc\":64,\"pkt\":1,\"cell\":9,\"arg\":48}"
        );
    }

    #[test]
    fn sentinel_fields_omitted() {
        let ev = TraceEvent::instant(Time::ZERO, Stage::CompletionPush);
        let mut s = String::new();
        write_event(&mut s, &ev);
        assert_eq!(s, "{\"t_ps\":0,\"stage\":\"host.cq.push\",\"ph\":\"I\"}");
    }

    #[test]
    fn jsonl_is_line_per_event() {
        let evs = vec![
            TraceEvent::instant(Time::ZERO, Stage::TxDescriptor).pkt(0),
            TraceEvent::instant(Time::from_ns(1), Stage::TxFramer).cell(0),
        ];
        let s = to_jsonl(&evs);
        assert_eq!(s.lines().count(), 2);
        for line in s.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
