//! Static hint generation (the compiler half of paper §4.2).
//!
//! The static compiler runs the *same* CCA identification and Swing
//! priority algorithms the VM would run, then records their results in the
//! binary (Figure 9). The work happens offline, so none of it is charged to
//! the dynamic translation meter.

use veal_accel::AcceleratorConfig;
use veal_cca::{identify_groups, is_legal_group_current, CcaSpec, LegalityScratch};
use veal_ir::streams::separate;
use veal_ir::{CostMeter, LoopBody, OpId};
use veal_sched::{rec_mii, res_mii, swing_order};

/// Statically computed, binary-encoded translation hints for one loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StaticHints {
    /// Scheduling order (Figure 9c): op ids of the separated-and-collapsed
    /// graph in scheduling order.
    pub priority: Option<Vec<OpId>>,
    /// CCA subgraphs (Figure 9b): member ids in the separated graph.
    pub cca_groups: Option<Vec<Vec<OpId>>>,
}

impl StaticHints {
    /// No hints: a plain legacy binary.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any hint is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.priority.is_none() && self.cca_groups.is_none()
    }

    /// Stable fingerprint over the hint payload, part of the memoized
    /// translation key (the same loop translated with different hints can
    /// legitimately produce different schedules).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = veal_ir::rng::Fnv64::new();
        match &self.priority {
            None => h.write_u8(0),
            Some(order) => {
                h.write_u8(1);
                h.write_u64(order.len() as u64);
                for id in order {
                    h.write_u64(id.index() as u64);
                }
            }
        }
        match &self.cca_groups {
            None => h.write_u8(0),
            Some(groups) => {
                h.write_u8(1);
                h.write_u64(groups.len() as u64);
                for g in groups {
                    h.write_u64(g.len() as u64);
                    for id in g {
                        h.write_u64(id.index() as u64);
                    }
                }
            }
        }
        h.finish()
    }
}

/// Computes the hints a static compiler would embed for `body`, targeting
/// `config` (for latencies/resources) and optionally a CCA.
///
/// The priority order is computed on the graph *after* applying the CCA
/// groups, exactly as the VM will see it when both hints are honored; the
/// paper notes that recurrence criticality (what the order captures) is
/// architecture independent as long as execution latencies stay consistent
/// (footnote 3).
///
/// Returns [`StaticHints::none`] for loops the static compiler cannot
/// separate (they will never reach the scheduler anyway).
#[must_use]
pub fn compute_hints(
    body: &LoopBody,
    config: &AcceleratorConfig,
    cca: Option<&CcaSpec>,
) -> StaticHints {
    // Offline work: metered into a scratch meter that is dropped.
    let mut scratch = CostMeter::new();
    let Ok(sep) = separate(&body.dfg, &mut scratch) else {
        return StaticHints::none();
    };
    let summary = sep.summary();
    let mut dfg = sep.dfg;
    let groups = match cca {
        Some(spec) => {
            let gs = identify_groups(&dfg, spec, &mut scratch);
            let mut members: Vec<Vec<OpId>> = Vec::new();
            let mut legality = LegalityScratch::new();
            for g in gs {
                // Drop groups that became illegal once earlier groups
                // collapsed (mutually dependent groups cannot both execute
                // atomically) — the VM applies the same sequential check,
                // with the same verdicts, and neither rebuilds the
                // condensation after each collapse.
                if is_legal_group_current(&dfg, spec, &g.members, &mut legality) {
                    dfg.collapse(&g.members);
                    members.push(g.members);
                }
            }
            Some(members)
        }
        None => None,
    };
    let mii = res_mii(&dfg, config, summary, &mut scratch).max(rec_mii(
        &dfg,
        &config.latencies,
        &mut scratch,
    ));
    let order = swing_order(
        &dfg,
        &config.latencies,
        mii.min(config.max_ii.max(1)),
        &mut scratch,
    );
    StaticHints {
        priority: Some(order),
        cca_groups: groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veal_ir::{DfgBuilder, Opcode};

    fn body() -> LoopBody {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let a = b.op(Opcode::And, &[x, x]);
        let s = b.op(Opcode::Sub, &[a, x]);
        let m = b.op(Opcode::Mul, &[s, x]);
        b.store_stream(1, m);
        LoopBody::new("h", b.finish())
    }

    #[test]
    fn hints_cover_collapsed_graph() {
        let la = AcceleratorConfig::paper_design();
        let h = compute_hints(&body(), &la, Some(&CcaSpec::paper()));
        let order = h.priority.expect("priority present");
        let groups = h.cca_groups.expect("groups present");
        assert_eq!(groups.len(), 1);
        // Order covers: load, store, mul, and the collapsed CCA node = 4.
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn hints_without_cca_cover_all_ops() {
        let la = AcceleratorConfig::paper_design();
        let h = compute_hints(&body(), &la, None);
        assert_eq!(h.cca_groups, None);
        assert_eq!(h.priority.unwrap().len(), 5);
    }

    #[test]
    fn unseparable_loop_gets_no_hints() {
        let mut b = DfgBuilder::new();
        let x = b.live_in();
        b.op(Opcode::Call, &[x]);
        let body = LoopBody::new("bad", b.finish());
        let la = AcceleratorConfig::paper_design();
        assert!(compute_hints(&body, &la, None).is_empty());
    }

    #[test]
    fn hints_are_deterministic() {
        let la = AcceleratorConfig::paper_design();
        let a = compute_hints(&body(), &la, Some(&CcaSpec::paper()));
        let b = compute_hints(&body(), &la, Some(&CcaSpec::paper()));
        assert_eq!(a, b);
    }
}
