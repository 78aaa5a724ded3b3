//! Pass 1 — the MSV borrow checker.
//!
//! Symbolically executes the prefix-cache schedule, tracking every frame's
//! lifetime (created → cached/working → dropped), its layer frontier, and
//! the cache-stack discipline. Rejects use-after-drop (`MSV001`), leaked
//! frames (`MSV002`), frontier desyncs (`MSV004`, including an advance
//! whose claimed starting layer `from` is not the frame's frontier), and
//! bad measurement coverage (`MSV005`), and cross-checks the schedule's
//! peak cached-frame count and total work against the claimed cost report
//! (`MSV003`, `MSV006`).

use std::collections::BTreeMap;

use crate::cost::advance_gates;
use crate::diag::{DiagCode, Diagnostic, Location};
use crate::plan::{ExecutionPlan, FrameId, ScheduleOp, ROOT_FRAME};

struct FrameState {
    /// Last layer applied; `-1` = fresh |0…0⟩ state.
    done: i64,
    cached: bool,
    alive: bool,
}

/// Run the borrow checker over `plan.schedule`.
pub fn check(plan: &ExecutionPlan<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let layered = plan.layered;
    let last_layer = layered.n_layers() as i64 - 1;

    let mut frames: BTreeMap<FrameId, FrameState> = BTreeMap::new();
    let mut cache_stack: Vec<FrameId> = Vec::new();
    if !plan.order.is_empty() || !plan.schedule.is_empty() {
        frames.insert(ROOT_FRAME, FrameState { done: -1, cached: true, alive: true });
        cache_stack.push(ROOT_FRAME);
    }
    let mut peak = usize::from(!plan.order.is_empty());
    let mut measured = vec![0usize; plan.trials.len()];
    let mut ops_total: u64 = 0;

    for (i, op) in plan.schedule.iter().enumerate() {
        let at = Location::schedule_op(i);
        // Shared liveness guard: every op names one primary frame.
        let (primary, _) = op.frames();
        let alive = frames.get(&primary).is_some_and(|f| f.alive);
        if !alive {
            diags.push(Diagnostic::new(
                DiagCode::UseAfterDrop,
                at,
                format!("schedule op {op:?} uses frame {primary} after it was dropped (or before it was created)"),
            ));
            continue;
        }
        match *op {
            ScheduleOp::Advance { frame, from, through } => {
                let st = frames.get_mut(&frame).expect("liveness checked above");
                if from != st.done {
                    diags.push(Diagnostic::new(
                        DiagCode::FrontierDesync,
                        at,
                        format!(
                            "advance of frame {frame} claims to start at layer {from} but the frame is at layer {}",
                            st.done
                        ),
                    ));
                }
                if through < st.done {
                    diags.push(Diagnostic::new(
                        DiagCode::FrontierDesync,
                        at,
                        format!(
                            "frame {frame} frontier moves backwards: at layer {} asked to advance through {through}",
                            st.done
                        ),
                    ));
                } else if through > last_layer {
                    diags.push(Diagnostic::new(
                        DiagCode::FrontierDesync,
                        at,
                        format!(
                            "frame {frame} advances through layer {through} but the circuit ends at {last_layer}"
                        ),
                    ));
                }
                ops_total += advance_gates(layered, st.done, through);
                st.done = st.done.max(through.min(last_layer));
            }
            ScheduleOp::CloneInject { parent, child, injection, cached } => {
                ops_total += 1;
                let parent_done = frames.get(&parent).expect("liveness checked above").done;
                if injection.layer() as i64 != parent_done {
                    diags.push(Diagnostic::new(
                        DiagCode::FrontierDesync,
                        at,
                        format!(
                            "injection at layer {} cloned from frame {parent} whose frontier is at layer {parent_done}",
                            injection.layer()
                        ),
                    ));
                }
                if frames.contains_key(&child) {
                    diags.push(Diagnostic::new(
                        DiagCode::FrontierDesync,
                        at,
                        format!("frame id {child} reused; frames must be allocated monotonically"),
                    ));
                    continue;
                }
                frames.insert(child, FrameState { done: parent_done, cached, alive: true });
                if cached {
                    if cache_stack.last() != Some(&parent) {
                        diags.push(Diagnostic::new(
                            DiagCode::FrontierDesync,
                            at,
                            format!(
                                "cached clone branches from frame {parent}, which is not the top of the cache stack"
                            ),
                        ));
                    }
                    cache_stack.push(child);
                    peak = peak.max(cache_stack.len());
                }
            }
            ScheduleOp::Detach { frame } => {
                if frame == ROOT_FRAME {
                    diags.push(Diagnostic::new(
                        DiagCode::FrontierDesync,
                        at,
                        "the root (error-free prefix) frame must stay cached".to_string(),
                    ));
                    continue;
                }
                let st = frames.get_mut(&frame).expect("liveness checked above");
                if !st.cached || cache_stack.last() != Some(&frame) {
                    diags.push(Diagnostic::new(
                        DiagCode::FrontierDesync,
                        at,
                        format!("detach of frame {frame}, which is not the top of the cache stack"),
                    ));
                    cache_stack.retain(|&f| f != frame);
                } else {
                    cache_stack.pop();
                }
                st.cached = false;
            }
            ScheduleOp::InjectInPlace { frame, injection } => {
                ops_total += 1;
                let st = frames.get(&frame).expect("liveness checked above");
                if injection.layer() as i64 != st.done {
                    diags.push(Diagnostic::new(
                        DiagCode::FrontierDesync,
                        at,
                        format!(
                            "injection at layer {} applied to frame {frame} whose frontier is at layer {}",
                            injection.layer(),
                            st.done
                        ),
                    ));
                }
            }
            ScheduleOp::Measure { frame, trial } => {
                let st = frames.get(&frame).expect("liveness checked above");
                if st.done != last_layer {
                    diags.push(Diagnostic::new(
                        DiagCode::MeasurementCoverage,
                        at.at_trial(trial),
                        format!(
                            "trial {trial} measured from frame {frame} at layer {}, before the circuit's last layer {last_layer}",
                            st.done
                        ),
                    ));
                }
                match measured.get_mut(trial) {
                    Some(count) => {
                        *count += 1;
                        if *count > 1 {
                            diags.push(Diagnostic::new(
                                DiagCode::MeasurementCoverage,
                                at.at_trial(trial),
                                format!("trial {trial} measured {count} times"),
                            ));
                        }
                    }
                    None => diags.push(Diagnostic::new(
                        DiagCode::MeasurementCoverage,
                        at,
                        format!(
                            "measurement of unknown trial {trial} (the set has {})",
                            plan.trials.len()
                        ),
                    )),
                }
            }
            ScheduleOp::Drop { frame } => {
                if frame == ROOT_FRAME {
                    diags.push(Diagnostic::new(
                        DiagCode::FrontierDesync,
                        at,
                        "the root (error-free prefix) frame must never be dropped".to_string(),
                    ));
                    continue;
                }
                let st = frames.get_mut(&frame).expect("liveness checked above");
                if st.cached {
                    if cache_stack.last() == Some(&frame) {
                        cache_stack.pop();
                    } else {
                        diags.push(Diagnostic::new(
                            DiagCode::FrontierDesync,
                            at,
                            format!("drop of cached frame {frame}, which is not the top of the cache stack"),
                        ));
                        cache_stack.retain(|&f| f != frame);
                    }
                }
                st.alive = false;
            }
        }
    }

    for (&id, st) in &frames {
        if st.alive && id != ROOT_FRAME {
            diags.push(Diagnostic::new(
                DiagCode::LeakedFrame,
                Location::none(),
                format!("frame {id} is still alive when the schedule ends"),
            ));
        }
    }
    for (trial, &count) in measured.iter().enumerate() {
        if count == 0 {
            diags.push(Diagnostic::new(
                DiagCode::MeasurementCoverage,
                Location::trial(trial),
                format!("trial {trial} is never measured by the schedule"),
            ));
        }
    }

    if let Some(exp) = plan.expectations {
        if peak != exp.msv_peak {
            diags.push(Diagnostic::new(
                DiagCode::PeakMsvMismatch,
                Location::none(),
                format!(
                    "schedule peaks at {peak} cached state vector(s) but the cost report claims {}",
                    exp.msv_peak
                ),
            ));
        }
        if ops_total != exp.optimized_ops {
            diags.push(Diagnostic::new(
                DiagCode::OpsMismatch,
                Location::none(),
                format!(
                    "schedule performs {ops_total} gate+injection op(s) but the cost report claims {}",
                    exp.optimized_ops
                ),
            ));
        }
    }
    diags
}
