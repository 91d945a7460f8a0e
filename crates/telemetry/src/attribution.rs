//! Bottleneck attribution: rank resources by utilization and compute
//! the throughput ceiling each one implies.
//!
//! Given a [`Profile`] and the run's achieved goodput, every charged
//! resource gets a verdict: its utilization over the run and the
//! goodput the run would reach if that resource were driven to 100% —
//! `ceiling = goodput / utilization`. The resource with the highest
//! utilization is the bottleneck: it hits saturation first as load
//! grows, and its ceiling is the run's throughput limit. This is the
//! paper's "receive engine saturates first, bus second" argument turned
//! into a machine-checked output.
//!
//! Because every charge in the simulations is exact (each cell, burst
//! and slot contributes its deterministic duration) and all components
//! share the same span denominator, the measured ranking equals the
//! analytic per-packet-time ranking — there is no sampling noise.

use crate::profiler::{Component, Profile};
use hni_sim::Duration;

/// One resource's share of the run.
#[derive(Clone, Debug)]
pub struct ResourceShare {
    /// The resource.
    pub component: Component,
    /// Total active time charged to it.
    pub busy: Duration,
    /// Active time over the run span.
    pub utilization: f64,
    /// Goodput the run would achieve with this resource saturated:
    /// `goodput / utilization`. Infinite if the utilization is zero.
    pub ceiling_bps: f64,
}

/// The ranked attribution of one run.
#[derive(Clone, Debug)]
pub struct Attribution {
    /// The run's achieved goodput (the ceiling numerator).
    pub goodput_bps: f64,
    /// The run span the utilizations are over.
    pub span: Duration,
    /// Charged resources, most-utilized first. Ties break in canonical
    /// [`Component::ALL`] order, so the ranking is deterministic.
    pub ranked: Vec<ResourceShare>,
}

/// Compute the attribution of a profile snapshot.
///
/// Only components with nonzero active time participate — occupancy
/// gauges (FIFOs, pools) measure loss pressure, not a serial resource,
/// and are reported through the profile itself.
pub fn attribute(profile: &Profile, goodput_bps: f64) -> Attribution {
    let span = profile.span();
    let mut ranked: Vec<ResourceShare> = Component::ALL
        .into_iter()
        .filter(|&c| profile.active_time(c) > Duration::ZERO)
        .map(|c| {
            let utilization = profile.utilization(c);
            ResourceShare {
                component: c,
                busy: profile.active_time(c),
                utilization,
                ceiling_bps: if utilization > 0.0 {
                    goodput_bps / utilization
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect();
    // Stable sort: equal utilizations keep canonical component order.
    ranked.sort_by(|a, b| b.utilization.partial_cmp(&a.utilization).unwrap());
    Attribution {
        goodput_bps,
        span,
        ranked,
    }
}

impl Attribution {
    /// The most-utilized resource — the one that saturates first.
    pub fn bottleneck(&self) -> Option<Component> {
        self.ranked.first().map(|r| r.component)
    }

    /// This run's share for one resource, if it was charged at all.
    pub fn share(&self, component: Component) -> Option<&ResourceShare> {
        self.ranked.iter().find(|r| r.component == component)
    }

    /// Render the ranked table plus the bottleneck verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>16}\n",
            "resource", "busy", "utilization", "implied ceiling"
        ));
        for r in &self.ranked {
            out.push_str(&format!(
                "{:<12} {:>12} {:>11.1}% {:>13.1} Mb/s\n",
                r.component.name(),
                format!("{}", r.busy),
                r.utilization * 100.0,
                r.ceiling_bps / 1e6,
            ));
        }
        match self.ranked.first() {
            Some(top) => out.push_str(&format!(
                "bottleneck: {} (utilization {:.1}%, ceiling ~{:.1} Mb/s)\n",
                top.component.name(),
                top.utilization * 100.0,
                top.ceiling_bps / 1e6,
            )),
            None => out.push_str("bottleneck: none (nothing charged)\n"),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Activity, CycleProfiler};
    use hni_sim::Time;

    fn profile_with(charges: &[(Component, u64)]) -> Profile {
        let mut p = CycleProfiler::new();
        for &(c, us) in charges {
            p.charge(c, Activity::Busy, Time::ZERO, Duration::from_us(us));
        }
        p.snapshot(Time::from_us(100))
    }

    #[test]
    fn ranks_by_utilization_and_computes_ceilings() {
        let prof = profile_with(&[
            (Component::TxEngine, 40),
            (Component::TxBus, 80),
            (Component::TxLink, 60),
        ]);
        let a = attribute(&prof, 100e6);
        assert_eq!(a.bottleneck(), Some(Component::TxBus));
        let order: Vec<Component> = a.ranked.iter().map(|r| r.component).collect();
        assert_eq!(
            order,
            vec![Component::TxBus, Component::TxLink, Component::TxEngine]
        );
        let bus = a.share(Component::TxBus).unwrap();
        assert!((bus.utilization - 0.8).abs() < 1e-12);
        // 100 Mb/s at 80% utilization: saturating the bus gives 125.
        assert!((bus.ceiling_bps - 125e6).abs() < 1.0);
        assert!(a.share(Component::RxEngine).is_none());
    }

    #[test]
    fn ties_break_in_canonical_order() {
        let prof = profile_with(&[(Component::TxLink, 50), (Component::TxEngine, 50)]);
        let a = attribute(&prof, 1e6);
        // Equal utilization: TxEngine precedes TxLink in Component::ALL.
        assert_eq!(a.bottleneck(), Some(Component::TxEngine));
    }

    #[test]
    fn empty_profile_has_no_bottleneck() {
        let prof = CycleProfiler::new().snapshot(Time::from_us(10));
        let a = attribute(&prof, 0.0);
        assert_eq!(a.bottleneck(), None);
        assert!(a.render().contains("bottleneck: none"));
    }

    #[test]
    fn render_names_the_bottleneck() {
        let prof = profile_with(&[(Component::RxEngine, 90), (Component::RxBus, 70)]);
        let a = attribute(&prof, 500e6);
        let text = a.render();
        assert!(text.contains("bottleneck: rx.engine"));
        assert!(text.contains("rx.bus"));
        assert!(text.contains("implied ceiling"));
    }
}
