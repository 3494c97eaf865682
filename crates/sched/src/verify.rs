//! Independent validation of modulo schedules.
//!
//! The scheduler is complex enough to deserve an adversarial checker: this
//! module re-derives every constraint from scratch (dependences with
//! iteration distances, per-row resource capacity, II bounds) and is used
//! by the integration and property tests.

use crate::scheduler::ModuloSchedule;
use std::fmt;
use veal_accel::{AcceleratorConfig, ResourceKind};
use veal_ir::{Dfg, OpId};

/// A violated schedule constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleDefect {
    /// An op the graph contains was never scheduled.
    MissingOp(OpId),
    /// A dependence `src -> dst` with distance `d` is violated:
    /// `t(dst) < t(src) + latency − II·d`.
    DependenceViolated {
        /// Producer.
        src: OpId,
        /// Consumer.
        dst: OpId,
        /// Iteration distance.
        distance: u32,
        /// Observed slack (negative).
        slack: i64,
    },
    /// More ops share a (resource, row) than the hardware has units.
    ResourceOversubscribed {
        /// Resource class.
        kind: ResourceKind,
        /// Kernel row.
        row: u32,
        /// Ops in that row.
        count: usize,
        /// Units available.
        units: usize,
    },
    /// The II exceeds the control store.
    IiTooLarge {
        /// Achieved II.
        ii: u32,
        /// Hardware maximum.
        max_ii: u32,
    },
}

impl fmt::Display for ScheduleDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleDefect::MissingOp(op) => write!(f, "{op} missing from schedule"),
            ScheduleDefect::DependenceViolated {
                src,
                dst,
                distance,
                slack,
            } => write!(
                f,
                "dependence {src}->{dst} (distance {distance}) violated by {slack}"
            ),
            ScheduleDefect::ResourceOversubscribed {
                kind,
                row,
                count,
                units,
            } => write!(f, "{count} ops on {kind} in row {row} (only {units} units)"),
            ScheduleDefect::IiTooLarge { ii, max_ii } => {
                write!(f, "II {ii} exceeds control store {max_ii}")
            }
        }
    }
}

/// Checks `schedule` against `dfg` and `config`, returning every defect.
///
/// # Example
///
/// ```
/// use veal_accel::AcceleratorConfig;
/// use veal_ir::{CostMeter, DfgBuilder, Opcode};
/// use veal_sched::{modulo_schedule, verify_schedule, ScheduleOptions};
///
/// let mut b = DfgBuilder::new();
/// let x = b.load_stream(0);
/// let y = b.op(Opcode::Add, &[x, x]);
/// b.store_stream(1, y);
/// let dfg = b.finish();
/// let la = AcceleratorConfig::paper_design();
/// let s = modulo_schedule(&dfg, &la, &ScheduleOptions::default(),
///                         &mut CostMeter::new()).unwrap();
/// assert!(verify_schedule(&dfg, &s.schedule, &la).is_empty());
/// ```
#[must_use]
pub fn verify_schedule(
    dfg: &Dfg,
    schedule: &ModuloSchedule,
    config: &AcceleratorConfig,
) -> Vec<ScheduleDefect> {
    let mut defects = Vec::new();
    let ii = schedule.ii;
    if ii > config.max_ii {
        defects.push(ScheduleDefect::IiTooLarge {
            ii,
            max_ii: config.max_ii,
        });
    }

    for v in dfg.schedulable_ops() {
        if schedule.time(v).is_none() {
            defects.push(ScheduleDefect::MissingOp(v));
        }
    }

    let lat = &config.latencies;
    for e in dfg.edges() {
        let (Some(ts), Some(td)) = (schedule.time(e.src), schedule.time(e.dst)) else {
            continue;
        };
        let l = i64::from(dfg.node(e.src).opcode().map_or(0, |op| lat.latency(op)));
        // A schedule decoded from untrusted bytes may carry any times, II
        // and distances: a constraint that overflows i64 is violated.
        let slack = i64::from(ii)
            .checked_mul(i64::from(e.distance))
            .and_then(|back| ts.checked_add(l)?.checked_sub(back))
            .and_then(|ready| td.checked_sub(ready))
            .unwrap_or(i64::MIN);
        if slack < 0 {
            defects.push(ScheduleDefect::DependenceViolated {
                src: e.src,
                dst: e.dst,
                distance: e.distance,
                slack,
            });
        }
    }
    // Past the control store the II is already a defect, and a forged one
    // must not size the row table.
    if ii > config.max_ii {
        return defects;
    }

    // Resource rows: account span for unpipelined ops.
    for &kind in veal_accel::resources::ALL_RESOURCES {
        let units = config.units(kind);
        let mut rows = vec![0usize; ii as usize];
        for v in dfg.schedulable_ops() {
            let op = dfg.node(v).opcode().expect("schedulable");
            if ResourceKind::for_opcode(op) != Some(kind) {
                continue;
            }
            let Some(t) = schedule.time(v) else { continue };
            let span = if op.pipelined() {
                1
            } else {
                lat.latency(op).min(ii)
            };
            for k in 0..span {
                let r =
                    (t.rem_euclid(i64::from(ii)) + i64::from(k)).rem_euclid(i64::from(ii)) as usize;
                rows[r] += 1;
            }
        }
        for (row, &count) in rows.iter().enumerate() {
            if count > units {
                defects.push(ScheduleDefect::ResourceOversubscribed {
                    kind,
                    row: row as u32,
                    count,
                    units,
                });
            }
        }
    }
    defects
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{modulo_schedule, ScheduleOptions};
    use veal_ir::{CostMeter, DfgBuilder, Opcode};

    #[test]
    fn valid_schedule_has_no_defects() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let y = b.load_stream(1);
        let p = b.op(Opcode::Mul, &[x, y]);
        let a = b.op(Opcode::Add, &[p]);
        b.loop_carried(a, a, 1);
        b.store_stream(2, a);
        let dfg = b.finish();
        let la = AcceleratorConfig::paper_design();
        let s = modulo_schedule(
            &dfg,
            &la,
            &ScheduleOptions::default(),
            &mut CostMeter::new(),
        )
        .unwrap();
        assert_eq!(verify_schedule(&dfg, &s.schedule, &la), vec![]);
    }

    #[test]
    fn detects_missing_op() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        let dfg_small = b.finish();
        let la = AcceleratorConfig::paper_design();
        let s = modulo_schedule(
            &dfg_small,
            &la,
            &ScheduleOptions::default(),
            &mut CostMeter::new(),
        )
        .unwrap();
        // Verify against a *larger* graph: the extra op is missing.
        let mut b2 = DfgBuilder::new();
        let x2 = b2.op(Opcode::Add, &[]);
        let y2 = b2.op(Opcode::Sub, &[x2]);
        let dfg_big = b2.finish();
        let defects = verify_schedule(&dfg_big, &s.schedule, &la);
        assert!(defects.contains(&ScheduleDefect::MissingOp(y2)));
        let _ = x;
    }

    #[test]
    fn detects_ii_overflow() {
        // 5 int ops on 2 units schedule at II=3 on the paper design; the
        // same schedule is illegal for a control store of depth 2.
        let mut b = DfgBuilder::new();
        for _ in 0..5 {
            b.op(Opcode::Shl, &[]);
        }
        let dfg = b.finish();
        let la = AcceleratorConfig::paper_design();
        let s = modulo_schedule(
            &dfg,
            &la,
            &ScheduleOptions::default(),
            &mut CostMeter::new(),
        )
        .unwrap();
        assert_eq!(s.schedule.ii, 3);
        let shallow = AcceleratorConfig::builder().max_ii(2).build();
        let defects = verify_schedule(&dfg, &s.schedule, &shallow);
        assert!(defects
            .iter()
            .any(|d| matches!(d, ScheduleDefect::IiTooLarge { ii: 3, max_ii: 2 })));
    }

    #[test]
    fn detects_resource_oversubscription() {
        // Schedule on the generous paper design, then verify against a
        // single-int-unit machine: rows must oversubscribe.
        let mut b = DfgBuilder::new();
        for _ in 0..4 {
            b.op(Opcode::Shl, &[]);
        }
        let dfg = b.finish();
        let la = AcceleratorConfig::paper_design();
        let s = modulo_schedule(
            &dfg,
            &la,
            &ScheduleOptions::default(),
            &mut CostMeter::new(),
        )
        .unwrap();
        let narrow = AcceleratorConfig::builder().int_units(1).build();
        let defects = verify_schedule(&dfg, &s.schedule, &narrow);
        assert!(defects
            .iter()
            .any(|d| matches!(d, ScheduleDefect::ResourceOversubscribed { .. })));
    }

    #[test]
    fn forged_ii_and_times_are_defects_not_panics() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let a = b.op(Opcode::Add, &[x, x]);
        b.loop_carried(a, a, 1);
        b.store_stream(1, a);
        let dfg = b.finish();
        let la = AcceleratorConfig::paper_design();
        let good = modulo_schedule(
            &dfg,
            &la,
            &ScheduleOptions::default(),
            &mut CostMeter::new(),
        )
        .unwrap()
        .schedule;
        let (ii, times, units) = good.raw_parts();
        let forge = |ii: u32, times: Vec<i64>| {
            let s = ModuloSchedule::from_raw_parts(ii, times, units.to_vec());
            verify_schedule(&dfg, &s, &la)
        };
        // A u32::MAX II must neither size the row table nor overflow
        // II × distance.
        assert!(
            forge(u32::MAX, times.to_vec()).contains(&ScheduleDefect::IiTooLarge {
                ii: u32::MAX,
                max_ii: la.max_ii,
            })
        );
        // Times at the ends of i64 overflow neither the dependence nor the
        // row arithmetic.
        for t in [i64::MAX, i64::MIN] {
            let extreme: Vec<i64> = times.iter().map(|&x| if x >= 0 { t } else { x }).collect();
            let _ = forge(ii, extreme);
        }
    }
}
