//! Declarative per-QoS-class SLOs with multi-window burn-rate alerting.
//!
//! An [`SloSpec`] states the objective — "99% of interactive requests
//! answer under 250 ms" — as a latency threshold plus an **error
//! budget** (the tolerated bad fraction, here 1%). The [`SloTracker`]
//! feeds on the live bus's terminal events (`completed`, plus sheds and
//! deadline expiries, which are answers too) and maintains sliding
//! windows of good/bad counts per class.
//!
//! **Burn rate** is the language of the alert: over a window,
//! `burn = bad_fraction / error_budget` — burn 1.0 consumes the budget
//! exactly as fast as the SLO tolerates, burn 10 consumes a month of
//! budget in three days. Alerting on a *single* window forces a bad
//! trade (short window = flappy, long window = slow to fire), so each
//! spec alerts on **two windows at once**: a long window proves the
//! breach is sustained, a short window proves it is *still happening*
//! (and lets the alert resolve promptly once the cause clears). Both
//! burns must exceed the threshold to fire — the standard multi-window
//! multi-burn-rate construction from the SRE workbook, scaled down to
//! the soak's second-scale windows.
//!
//! The alert itself is a typed state machine:
//! `Inactive → Pending → Firing → Resolved(→ Pending …)`, with
//! hysteresis (`pending_for` before firing, `clear_for` before
//! resolving) so one straggling batch neither pages nor un-pages
//! anyone. Every transition is appended to a log the E29 harness
//! asserts on and `/alerts` serves.

use crate::json::Arr;
use hpf_service::QosClass;
use std::collections::VecDeque;

/// One class's service-level objective and its alerting windows.
#[derive(Debug, Clone)]
pub struct SloSpec {
    pub class: QosClass,
    /// A request is "good" iff it succeeds within this many µs.
    pub objective_latency_us: u64,
    /// Tolerated bad fraction (e.g. `0.01` = 99% objective).
    pub error_budget: f64,
    /// Long ("slow") alerting window, seconds: proves the breach is
    /// sustained.
    pub slow_window_s: f64,
    /// Short ("fast") window, seconds: proves it is still happening.
    pub fast_window_s: f64,
    /// Both windows' burn rates must exceed this to (stay) fire(d).
    pub burn_threshold: f64,
    /// Breach must persist this long before Pending → Firing.
    pub pending_for_s: f64,
    /// Recovery must persist this long before Firing → Resolved.
    pub clear_for_s: f64,
}

impl SloSpec {
    /// The interactive-class SLO the chaos soak is held to: 250 ms
    /// objective, 5% budget, 8 s/2 s windows, burn 2 to page.
    pub fn interactive_soak() -> Self {
        SloSpec {
            class: QosClass::Interactive,
            objective_latency_us: 250_000,
            error_budget: 0.05,
            slow_window_s: 8.0,
            fast_window_s: 2.0,
            burn_threshold: 2.0,
            pending_for_s: 0.5,
            clear_for_s: 2.0,
        }
    }

    /// A batch-class objective loose enough that overload alone should
    /// not page (2 s latency, 10% budget).
    pub fn batch_soak() -> Self {
        SloSpec {
            class: QosClass::Batch,
            objective_latency_us: 2_000_000,
            error_budget: 0.10,
            slow_window_s: 8.0,
            fast_window_s: 2.0,
            burn_threshold: 3.0,
            pending_for_s: 0.5,
            clear_for_s: 2.0,
        }
    }
}

/// Alert lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Burn below threshold; nothing brewing.
    Inactive,
    /// Burn above threshold, waiting out `pending_for` hysteresis.
    Pending,
    /// Sustained breach: the page.
    Firing,
    /// Breach cleared after a firing episode (terminal for that
    /// episode; a new breach starts a fresh `Pending`).
    Resolved,
}

impl AlertState {
    pub fn name(&self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One recorded state change, `at_s` seconds on the tracker's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    pub class: QosClass,
    pub at_s: f64,
    pub from: AlertState,
    pub to: AlertState,
    /// Slow-window burn rate at the moment of transition.
    pub slow_burn: f64,
    /// Fast-window burn rate at the moment of transition.
    pub fast_burn: f64,
}

/// A timestamped request outcome inside a sliding window.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at_s: f64,
    good: bool,
}

/// Good/bad counts over a fixed look-back horizon.
#[derive(Debug, Default)]
struct Window {
    samples: VecDeque<Sample>,
    good: u64,
    bad: u64,
}

impl Window {
    fn push(&mut self, s: Sample) {
        if s.good {
            self.good += 1;
        } else {
            self.bad += 1;
        }
        self.samples.push_back(s);
    }

    fn expire(&mut self, now_s: f64, horizon_s: f64) {
        while let Some(front) = self.samples.front() {
            if now_s - front.at_s <= horizon_s {
                break;
            }
            if front.good {
                self.good -= 1;
            } else {
                self.bad -= 1;
            }
            self.samples.pop_front();
        }
    }

    fn bad_fraction(&self) -> f64 {
        let total = self.good + self.bad;
        if total == 0 {
            0.0
        } else {
            self.bad as f64 / total as f64
        }
    }

    fn total(&self) -> u64 {
        self.good + self.bad
    }
}

/// Per-class alert machinery.
#[derive(Debug)]
struct ClassTracker {
    spec: SloSpec,
    slow: Window,
    fast: Window,
    state: AlertState,
    /// When the current breach (both burns over threshold) began.
    breach_since: Option<f64>,
    /// When the current recovery (either burn back under) began.
    clear_since: Option<f64>,
}

/// Point-in-time status for one class (what `/slo` serves).
#[derive(Debug, Clone)]
pub struct SloStatus {
    pub class: QosClass,
    pub objective_latency_us: u64,
    pub error_budget: f64,
    pub slow_burn: f64,
    pub fast_burn: f64,
    pub slow_window_total: u64,
    pub fast_window_total: u64,
    pub state: AlertState,
}

/// Sliding-window SLO evaluation and burn-rate alerting over all
/// configured classes. Timestamps are caller-supplied seconds on any
/// monotonic clock (the bus's `wall_s` is the natural choice), which
/// keeps evaluation deterministic and testable.
#[derive(Debug)]
pub struct SloTracker {
    classes: Vec<ClassTracker>,
    log: Vec<AlertTransition>,
}

impl SloTracker {
    pub fn new(specs: Vec<SloSpec>) -> Self {
        SloTracker {
            classes: specs
                .into_iter()
                .map(|spec| ClassTracker {
                    spec,
                    slow: Window::default(),
                    fast: Window::default(),
                    state: AlertState::Inactive,
                    breach_since: None,
                    clear_since: None,
                })
                .collect(),
            log: Vec::new(),
        }
    }

    /// The soak's default pair of objectives.
    pub fn soak_defaults() -> Self {
        SloTracker::new(vec![SloSpec::interactive_soak(), SloSpec::batch_soak()])
    }

    /// Record one terminal request outcome. `ok` is the service-level
    /// verdict; a request is *good* only if it succeeded **and** met
    /// the class's latency objective. Classes without a spec are
    /// ignored.
    pub fn observe(&mut self, now_s: f64, class: QosClass, latency_us: u64, ok: bool) {
        for c in &mut self.classes {
            if c.spec.class == class {
                let good = ok && latency_us <= c.spec.objective_latency_us;
                let s = Sample { at_s: now_s, good };
                c.slow.push(s);
                c.fast.push(s);
            }
        }
    }

    /// Record a request refused at the door (shed / deadline-expired):
    /// an answer the caller did not want, i.e. a bad event against the
    /// class's budget.
    pub fn observe_refusal(&mut self, now_s: f64, class: QosClass) {
        self.observe(now_s, class, 0, false);
    }

    /// Feed one bus event (terminal service events only; everything
    /// else is ignored). Convenience for `--follow`-style consumers.
    pub fn observe_bus_event(&mut self, e: &crate::bus::BusEvent) {
        if e.origin != crate::bus::BusOrigin::Service {
            return;
        }
        let class = match e.class.as_str() {
            "interactive" => QosClass::Interactive,
            "batch" => QosClass::Batch,
            "best-effort" => QosClass::BestEffort,
            _ => return,
        };
        match e.kind.as_str() {
            "completed" => self.observe(e.wall_s, class, e.latency_us, e.ok),
            "shed" => self.observe_refusal(e.wall_s, class),
            _ => {}
        }
    }

    /// Advance the alert state machines to `now_s`, returning the
    /// transitions that occurred (also appended to [`Self::log`]).
    pub fn evaluate(&mut self, now_s: f64) -> Vec<AlertTransition> {
        let mut fired = Vec::new();
        for c in &mut self.classes {
            c.slow.expire(now_s, c.spec.slow_window_s);
            c.fast.expire(now_s, c.spec.fast_window_s);
            let slow_burn = c.slow.bad_fraction() / c.spec.error_budget;
            let fast_burn = c.fast.bad_fraction() / c.spec.error_budget;
            let breaching = slow_burn >= c.spec.burn_threshold
                && fast_burn >= c.spec.burn_threshold
                && c.slow.total() > 0;

            if breaching {
                c.clear_since = None;
                if c.breach_since.is_none() {
                    c.breach_since = Some(now_s);
                }
            } else {
                c.breach_since = None;
                if c.clear_since.is_none() {
                    c.clear_since = Some(now_s);
                }
            }

            let next = match c.state {
                AlertState::Inactive | AlertState::Resolved if breaching => AlertState::Pending,
                AlertState::Pending if breaching => {
                    if now_s - c.breach_since.unwrap_or(now_s) >= c.spec.pending_for_s {
                        AlertState::Firing
                    } else {
                        AlertState::Pending
                    }
                }
                // An early clear un-pages nobody: Pending quietly
                // returns to Inactive.
                AlertState::Pending => AlertState::Inactive,
                AlertState::Firing if !breaching => {
                    if now_s - c.clear_since.unwrap_or(now_s) >= c.spec.clear_for_s {
                        AlertState::Resolved
                    } else {
                        AlertState::Firing
                    }
                }
                state => state,
            };
            if next != c.state {
                let t = AlertTransition {
                    class: c.spec.class,
                    at_s: now_s,
                    from: c.state,
                    to: next,
                    slow_burn,
                    fast_burn,
                };
                c.state = next;
                fired.push(t.clone());
                self.log.push(t);
            }
        }
        fired
    }

    /// The full transition log since construction.
    pub fn log(&self) -> &[AlertTransition] {
        &self.log
    }

    /// Point-in-time per-class status (burns over the *current* window
    /// contents; call [`Self::evaluate`] first to expire stale samples).
    pub fn status(&self) -> Vec<SloStatus> {
        self.classes
            .iter()
            .map(|c| SloStatus {
                class: c.spec.class,
                objective_latency_us: c.spec.objective_latency_us,
                error_budget: c.spec.error_budget,
                slow_burn: c.slow.bad_fraction() / c.spec.error_budget,
                fast_burn: c.fast.bad_fraction() / c.spec.error_budget,
                slow_window_total: c.slow.total(),
                fast_window_total: c.fast.total(),
                state: c.state,
            })
            .collect()
    }

    /// The `/slo` document: one JSON object per class.
    pub fn status_json(&self) -> String {
        let mut out = String::new();
        let mut doc = Arr::new(&mut out);
        for s in self.status() {
            doc.obj()
                .str("class", s.class.name())
                .u64("objective_latency_us", s.objective_latency_us)
                .f64("error_budget", s.error_budget)
                .f64("slow_burn", s.slow_burn)
                .f64("fast_burn", s.fast_burn)
                .u64("slow_window_total", s.slow_window_total)
                .u64("fast_window_total", s.fast_window_total)
                .str("state", s.state.name());
        }
        drop(doc);
        out
    }

    /// The `/alerts` document: the transition log, oldest first.
    pub fn alerts_json(&self) -> String {
        let mut out = String::new();
        let mut doc = Arr::new(&mut out);
        for t in &self.log {
            doc.obj()
                .str("class", t.class.name())
                .f64("at_s", t.at_s)
                .str("from", t.from.name())
                .str("to", t.to.name())
                .f64("slow_burn", t.slow_burn)
                .f64("fast_burn", t.fast_burn);
        }
        drop(doc);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec {
            class: QosClass::Interactive,
            objective_latency_us: 1000,
            error_budget: 0.1,
            slow_window_s: 10.0,
            fast_window_s: 2.0,
            burn_threshold: 2.0,
            pending_for_s: 1.0,
            clear_for_s: 2.0,
        }
    }

    #[test]
    fn healthy_traffic_never_leaves_inactive() {
        let mut t = SloTracker::new(vec![spec()]);
        for i in 0..100 {
            t.observe(i as f64 * 0.1, QosClass::Interactive, 500, true);
            assert!(t.evaluate(i as f64 * 0.1).is_empty());
        }
        assert_eq!(t.status()[0].state, AlertState::Inactive);
        assert_eq!(t.log().len(), 0);
    }

    #[test]
    fn slow_but_successful_requests_burn_budget_too() {
        let mut t = SloTracker::new(vec![spec()]);
        // ok=true but over the 1000 µs objective: bad by definition.
        for i in 0..50 {
            t.observe(i as f64 * 0.05, QosClass::Interactive, 50_000, true);
        }
        t.evaluate(2.5);
        assert!(t.status()[0].slow_burn > 2.0);
    }

    #[test]
    fn alert_walks_pending_firing_resolved_under_breach_and_recovery() {
        let mut t = SloTracker::new(vec![spec()]);
        // Phase 1: total failure from t=0 to t=3.
        let mut now = 0.0;
        while now < 3.0 {
            t.observe(now, QosClass::Interactive, 0, false);
            t.evaluate(now);
            now += 0.1;
        }
        let states: Vec<AlertState> = t.log().iter().map(|tr| tr.to).collect();
        assert!(states.contains(&AlertState::Pending), "{states:?}");
        assert!(states.contains(&AlertState::Firing), "{states:?}");
        assert_eq!(t.status()[0].state, AlertState::Firing);
        // Phase 2: clean traffic; windows drain, clear_for elapses.
        while now < 20.0 {
            t.observe(now, QosClass::Interactive, 100, true);
            t.evaluate(now);
            now += 0.1;
        }
        assert_eq!(t.status()[0].state, AlertState::Resolved);
        let seq: Vec<(AlertState, AlertState)> =
            t.log().iter().map(|tr| (tr.from, tr.to)).collect();
        assert_eq!(
            seq,
            vec![
                (AlertState::Inactive, AlertState::Pending),
                (AlertState::Pending, AlertState::Firing),
                (AlertState::Firing, AlertState::Resolved),
            ]
        );
    }

    #[test]
    fn short_blip_returns_pending_to_inactive_without_firing() {
        let mut t = SloTracker::new(vec![spec()]);
        // A breach shorter than pending_for (1 s).
        t.observe(0.0, QosClass::Interactive, 0, false);
        t.observe(0.2, QosClass::Interactive, 0, false);
        t.evaluate(0.2);
        assert_eq!(t.status()[0].state, AlertState::Pending);
        // Flood of good samples dilutes both windows below threshold.
        for i in 0..100 {
            t.observe(0.3 + i as f64 * 0.001, QosClass::Interactive, 10, true);
        }
        t.evaluate(0.5);
        assert_eq!(t.status()[0].state, AlertState::Inactive);
        assert!(
            t.log().iter().all(|tr| tr.to != AlertState::Firing),
            "a blip must not page"
        );
    }

    #[test]
    fn oscillating_breach_fires_at_most_once_per_hysteresis_window() {
        let mut t = SloTracker::new(vec![spec()]);
        // 30 s square wave at 10 Hz: 2.5 s all-bad, 2.5 s all-good. The
        // raw breach condition toggles every period (the fast window
        // drains below threshold near the end of each good phase, for
        // less than clear_for), so without pending_for/clear_for
        // hysteresis the alert would flap once per cycle.
        let mut now = 0.0;
        while now < 30.0 {
            let bad = ((now / 2.5) as u64).is_multiple_of(2);
            t.observe(
                now,
                QosClass::Interactive,
                if bad { 5000 } else { 100 },
                !bad,
            );
            t.evaluate(now);
            now += 0.1;
        }
        let firings = t
            .log()
            .iter()
            .filter(|tr| tr.from == AlertState::Pending && tr.to == AlertState::Firing)
            .count();
        let windows = (30.0 / (spec().pending_for_s + spec().clear_for_s)).ceil() as usize;
        assert!(
            firings <= windows,
            "{firings} Pending->Firing transitions over {windows} hysteresis windows"
        );
        assert_eq!(
            firings, 1,
            "the page must be sticky across the whole oscillation"
        );
        // Pin the transition log: one walk to Firing, no mid-oscillation
        // resolve/re-fire churn.
        let seq: Vec<(AlertState, AlertState)> =
            t.log().iter().map(|tr| (tr.from, tr.to)).collect();
        assert_eq!(
            seq,
            vec![
                (AlertState::Inactive, AlertState::Pending),
                (AlertState::Pending, AlertState::Firing),
            ]
        );
    }

    #[test]
    fn resolved_rebreach_starts_a_fresh_pending() {
        let mut t = SloTracker::new(vec![spec()]);
        let mut now = 0.0;
        while now < 3.0 {
            t.observe(now, QosClass::Interactive, 0, false);
            t.evaluate(now);
            now += 0.1;
        }
        while now < 20.0 {
            t.observe(now, QosClass::Interactive, 100, true);
            t.evaluate(now);
            now += 0.1;
        }
        assert_eq!(t.status()[0].state, AlertState::Resolved);
        // Long enough for the 10 s slow window to refill with failures.
        while now < 28.0 {
            t.observe(now, QosClass::Interactive, 0, false);
            t.evaluate(now);
            now += 0.05;
        }
        assert!(
            t.log()
                .iter()
                .any(|tr| tr.from == AlertState::Resolved && tr.to == AlertState::Pending),
            "rebreach after Resolved must open a fresh Pending: {:?}",
            t.log()
        );
    }

    #[test]
    fn burn_requires_both_windows_over_threshold() {
        let mut t = SloTracker::new(vec![spec()]);
        // Old failures fill the slow window; recent traffic is clean,
        // so the fast window stays under threshold → no alert.
        for i in 0..20 {
            t.observe(i as f64 * 0.1, QosClass::Interactive, 0, false);
        }
        for i in 0..40 {
            t.observe(3.0 + i as f64 * 0.05, QosClass::Interactive, 10, true);
        }
        t.evaluate(5.0);
        let s = &t.status()[0];
        assert!(s.slow_burn >= 2.0, "slow burn {} still high", s.slow_burn);
        assert!(s.fast_burn < 2.0, "fast burn {} recovered", s.fast_burn);
        assert_eq!(s.state, AlertState::Inactive);
    }

    #[test]
    fn json_documents_are_valid_and_carry_states() {
        let mut t = SloTracker::soak_defaults();
        let mut now = 0.0;
        while now < 3.0 {
            t.observe(now, QosClass::Interactive, 0, false);
            t.evaluate(now);
            now += 0.1;
        }
        let slo = t.status_json();
        let alerts = t.alerts_json();
        crate::json::validate(&slo).expect("slo json");
        crate::json::validate(&alerts).expect("alerts json");
        assert!(slo.contains("\"class\":\"interactive\""));
        assert!(slo.contains("\"state\":\"firing\""));
        assert!(alerts.contains("\"to\":\"firing\""));
    }

    #[test]
    fn bus_events_feed_the_tracker() {
        use crate::bus::{BusEvent, BusOrigin};
        let mut t = SloTracker::new(vec![spec()]);
        let mk = |kind: &str, wall_s: f64, ok: bool| BusEvent {
            seq: 0,
            wall_s,
            origin: BusOrigin::Service,
            kind: kind.to_string(),
            trace_id: 1,
            class: "interactive".to_string(),
            span: String::new(),
            label: String::new(),
            time_s: 0.0,
            latency_us: 10,
            ok,
            outcome: String::new(),
        };
        t.observe_bus_event(&mk("completed", 0.1, true));
        t.observe_bus_event(&mk("shed", 0.2, true)); // refusal = bad
        t.observe_bus_event(&mk("admitted", 0.3, true)); // non-terminal: ignored
        t.evaluate(0.3);
        let s = &t.status()[0];
        assert_eq!(s.slow_window_total, 2);
        assert!(s.slow_burn > 0.0);
    }
}
