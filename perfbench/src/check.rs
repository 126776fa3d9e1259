//! Failure accounting. An operation (one stress run, or one
//! `scenario::run` call with its exports) fails when it panics, when the
//! oracle reports a violation, or when its digest differs from the first
//! repetition of the same workload and seed.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// What a finished operation reports to the ledger.
#[derive(Clone, Copy, Debug)]
pub struct Checked {
    pub digest: u64,
    pub violations: u64,
}

#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    expected: BTreeMap<String, u64>,
}

impl Ledger {
    /// Pin the digest operations under `key` must reproduce.
    pub fn expect(&mut self, key: &str, digest: u64) {
        self.expected.insert(key.to_string(), digest);
    }

    /// Account one operation; returns whether it passed. The first passing
    /// digest seen under a key becomes that key's expected digest.
    pub fn record(&mut self, key: &str, outcome: Result<Checked, String>) -> bool {
        self.attempted += 1;
        let problem = match outcome {
            Err(panic) => Some(format!("panic: {panic}")),
            Ok(c) if c.violations > 0 => Some(format!("{} oracle violations", c.violations)),
            Ok(c) => match self.expected.get(key) {
                Some(&want) if want != c.digest => Some(format!(
                    "digest {:016x} differs from expected {want:016x}",
                    c.digest
                )),
                Some(_) => None,
                None => {
                    self.expected.insert(key.to_string(), c.digest);
                    None
                }
            },
        };
        match problem {
            Some(p) => {
                self.fail(key, &p);
                false
            }
            None => true,
        }
    }

    /// Count a failure found outside [`Ledger::record`] against the
    /// operation already attempted (e.g. a wire-codec round-trip mismatch).
    pub fn fail(&mut self, key: &str, why: &str) {
        self.failed += 1;
        self.failures.push(format!("{key}: {why}"));
    }

    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
