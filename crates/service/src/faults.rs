//! Fault injection for chaos testing the serving stack.
//!
//! The sites are compiled in unconditionally — production binaries carry
//! the hooks, disarmed — and armed per process via a spec string
//! (`qpilotd --faults <SPEC>`, the only switch). A disarmed site is one
//! relaxed atomic load, so the hooks cost nothing on the default path
//! and the chaos suite exercises the *same* binary CI ships.
//!
//! Spec grammar — comma-separated arms, each `name[=value][:count]`:
//!
//! | arm | effect at its site |
//! |---|---|
//! | `worker-stall=MS[:N]` | worker sleeps `MS` ms before looking at a job |
//! | `store-write-delay=MS[:N]` | store sleeps `MS` ms before a blob write |
//! | `store-write-fail[:N]` | blob write fails as if fsync returned an error |
//! | `poison-compile[:N]` | the compile panics (caught by the worker's unwind guard) |
//!
//! `:N` limits an arm to its first `N` firings (omitted = unlimited) —
//! e.g. `worker-stall=400:1` wedges exactly one compile so a waiter can
//! coalesce onto it, then the site goes quiet.
//!
//! [`FaultSpec`] is the parsed, inert configuration (plain data, lives
//! in `ServiceConfig`); [`Faults`] is the armed runtime with atomic
//! countdown state, shared by the worker pool and the store.

use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

/// One parsed arm: the millisecond payload (stall/delay sites) and an
/// optional firing budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultArm {
    /// Milliseconds for stall/delay arms; `0` for valueless arms.
    pub value_ms: u64,
    /// Fire at most this many times (`None` = unlimited).
    pub count: Option<u64>,
}

/// A parsed `--faults` spec. Inert plain data — see
/// [`Faults`] for the armed runtime form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSpec {
    /// `worker-stall=MS[:N]`: sleep before the worker touches a job.
    pub worker_stall: Option<FaultArm>,
    /// `store-write-delay=MS[:N]`: sleep before a blob write.
    pub store_write_delay: Option<FaultArm>,
    /// `store-write-fail[:N]`: blob write reports failure.
    pub store_write_fail: Option<FaultArm>,
    /// `poison-compile[:N]`: the compile panics.
    pub poison_compile: Option<FaultArm>,
}

impl FaultSpec {
    /// Parses the comma-separated spec grammar (see the [module
    /// docs](self)). The empty string is the empty spec.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed arm.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::default();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            // name[=value][:count] — the count suffix binds last.
            let (head, count) = match raw.rsplit_once(':') {
                Some((head, count)) => {
                    let count: u64 = count
                        .parse()
                        .map_err(|_| format!("fault arm `{raw}`: bad count `{count}`"))?;
                    (head, Some(count))
                }
                None => (raw, None),
            };
            let (name, value_ms) = match head.split_once('=') {
                Some((name, value)) => {
                    let value: u64 = value
                        .parse()
                        .map_err(|_| format!("fault arm `{raw}`: bad value `{value}`"))?;
                    (name, value)
                }
                None => (head, 0),
            };
            let arm = Some(FaultArm { value_ms, count });
            match name {
                "worker-stall" => out.worker_stall = arm,
                "store-write-delay" => out.store_write_delay = arm,
                "store-write-fail" => out.store_write_fail = arm,
                "poison-compile" => out.poison_compile = arm,
                other => return Err(format!("unknown fault site `{other}`")),
            }
            if matches!(name, "worker-stall" | "store-write-delay") && value_ms == 0 {
                return Err(format!("fault arm `{raw}`: `{name}` needs `=MS`"));
            }
        }
        Ok(out)
    }

    /// `true` when no arm is configured.
    pub fn is_empty(&self) -> bool {
        *self == FaultSpec::default()
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut arm = |f: &mut fmt::Formatter<'_>,
                       name: &str,
                       valued: bool,
                       a: &Option<FaultArm>|
         -> fmt::Result {
            let Some(a) = a else { return Ok(()) };
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{name}")?;
            if valued {
                write!(f, "={}", a.value_ms)?;
            }
            if let Some(n) = a.count {
                write!(f, ":{n}")?;
            }
            Ok(())
        };
        arm(f, "worker-stall", true, &self.worker_stall)?;
        arm(f, "store-write-delay", true, &self.store_write_delay)?;
        arm(f, "store-write-fail", false, &self.store_write_fail)?;
        arm(f, "poison-compile", false, &self.poison_compile)
    }
}

/// One armed site: a millisecond payload and an atomic firing budget
/// (`0` disarmed, `-1` unlimited, `>0` remaining firings).
#[derive(Debug)]
struct FaultSite {
    value_ms: u64,
    remaining: AtomicI64,
}

impl FaultSite {
    fn from_arm(arm: Option<FaultArm>) -> FaultSite {
        match arm {
            None => FaultSite {
                value_ms: 0,
                remaining: AtomicI64::new(0),
            },
            Some(a) => FaultSite {
                value_ms: a.value_ms,
                remaining: AtomicI64::new(match a.count {
                    None => -1,
                    Some(n) => i64::try_from(n).unwrap_or(i64::MAX),
                }),
            },
        }
    }

    /// Consumes one firing; `Some(value_ms)` when the site fires.
    fn fire(&self) -> Option<u64> {
        loop {
            let cur = self.remaining.load(Ordering::Relaxed);
            if cur == 0 {
                return None;
            }
            if cur < 0 {
                return Some(self.value_ms);
            }
            if self
                .remaining
                .compare_exchange_weak(cur, cur - 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some(self.value_ms);
            }
        }
    }
}

/// The armed runtime form of a [`FaultSpec`], shared (via `Arc`) by the
/// worker pool and the schedule store. Each method is one injection
/// site; disarmed sites are a single atomic load.
#[derive(Debug)]
pub struct Faults {
    worker_stall: FaultSite,
    store_write_delay: FaultSite,
    store_write_fail: FaultSite,
    poison_compile: FaultSite,
}

impl Default for Faults {
    fn default() -> Self {
        Faults::from_spec(&FaultSpec::default())
    }
}

impl Faults {
    /// Arms a spec.
    pub fn from_spec(spec: &FaultSpec) -> Faults {
        Faults {
            worker_stall: FaultSite::from_arm(spec.worker_stall),
            store_write_delay: FaultSite::from_arm(spec.store_write_delay),
            store_write_fail: FaultSite::from_arm(spec.store_write_fail),
            poison_compile: FaultSite::from_arm(spec.poison_compile),
        }
    }

    /// Site: worker picked up a job (before cache double-check).
    pub fn worker_stall(&self) {
        if let Some(ms) = self.worker_stall.fire() {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    /// Site: store about to write a blob (sleep component).
    pub fn store_write_delay(&self) {
        if let Some(ms) = self.store_write_delay.fire() {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    /// Site: store about to write a blob; `true` = the write must be
    /// treated as failed (the injected stand-in for an fsync error).
    pub fn store_write_fail(&self) -> bool {
        self.store_write_fail.fire().is_some()
    }

    /// Site: compile about to run; `true` = panic instead (the worker's
    /// unwind guard must contain it).
    pub fn poison_compile(&self) -> bool {
        self.poison_compile.fire().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_round_trips() {
        let spec = FaultSpec::parse("").unwrap();
        assert!(spec.is_empty());
        assert_eq!(spec.to_string(), "");
    }

    #[test]
    fn full_grammar_parses_and_renders() {
        let spec = FaultSpec::parse(
            "worker-stall=400:1,store-write-delay=50,store-write-fail:2,poison-compile",
        )
        .unwrap();
        assert_eq!(
            spec.worker_stall,
            Some(FaultArm {
                value_ms: 400,
                count: Some(1)
            })
        );
        assert_eq!(
            spec.store_write_delay,
            Some(FaultArm {
                value_ms: 50,
                count: None
            })
        );
        assert_eq!(
            spec.store_write_fail,
            Some(FaultArm {
                value_ms: 0,
                count: Some(2)
            })
        );
        assert_eq!(
            spec.poison_compile,
            Some(FaultArm {
                value_ms: 0,
                count: None
            })
        );
        // Display re-emits the same spec (arm order is canonical).
        assert_eq!(
            spec.to_string(),
            "worker-stall=400:1,store-write-delay=50,store-write-fail:2,poison-compile"
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (spec, needle) in [
            ("worker-stall", "needs `=MS`"),
            ("worker-stall=abc", "bad value"),
            ("poison-compile:x", "bad count"),
            ("quantum-bitflip", "unknown fault site"),
        ] {
            let err = FaultSpec::parse(spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn counted_site_fires_exactly_n_times() {
        let faults = Faults::from_spec(&FaultSpec::parse("store-write-fail:2").unwrap());
        assert!(faults.store_write_fail());
        assert!(faults.store_write_fail());
        assert!(!faults.store_write_fail());
        assert!(!faults.store_write_fail());
    }

    #[test]
    fn unlimited_site_keeps_firing_and_disarmed_site_never_does() {
        let faults = Faults::from_spec(&FaultSpec::parse("poison-compile").unwrap());
        for _ in 0..10 {
            assert!(faults.poison_compile());
        }
        assert!(!faults.store_write_fail());
        let disarmed = Faults::default();
        assert!(!disarmed.poison_compile());
    }
}
