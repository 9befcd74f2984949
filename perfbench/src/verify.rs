//! Output verification and failure accounting.
//!
//! CLI workloads compare their whole stdout with a digest recorded from
//! this tree's output. Serve workloads compare every response body byte
//! for byte with the body the server's own handler produces in the
//! client process. Every failed comparison, non-200 status, transport
//! error or nonzero exit is one failed operation.

use std::fmt;

/// Length plus 64-bit FNV-1a of a byte string. FNV-1a is a bijection of
/// its state per input byte, so any single changed byte changes the
/// hash; the length catches truncation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Byte count.
    pub len: usize,
    /// FNV-1a (64-bit) of the bytes.
    pub fnv: u64,
}

impl Digest {
    /// Digest of `bytes`.
    pub fn of(bytes: &[u8]) -> Digest {
        let mut fnv = 0xcbf2_9ce4_8422_2325_u64;
        for &b in bytes {
            fnv ^= u64::from(b);
            fnv = fnv.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Digest {
            len: bytes.len(),
            fnv,
        }
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:016x}", self.len, self.fnv)
    }
}

/// `thirstyflops experiments --all --json` stdout of this tree.
pub const PAPER_COLD: Digest = Digest {
    len: 49_573,
    fnv: 0xfc87_b500_4b64_0d67,
};

/// `thirstyflops scenario sweep examples/scenarios/sweep_siting_large.json
/// --json` stdout of this tree.
pub const SWEEP_LARGE: Digest = Digest {
    len: 26_494,
    fnv: 0x973f_3a41_e714_afd7,
};

/// What a served response must look like.
#[derive(Debug, Clone)]
pub enum Expected {
    /// Status 200 and exactly these body bytes.
    Exact(Vec<u8>),
    /// `/healthz`: status 200 and an `"ok"` status object. Its uptime and
    /// request counters legitimately differ from call to call.
    Health,
}

impl Expected {
    /// Checks one response; the error names the first difference.
    pub fn check(&self, status: u16, body: &[u8]) -> Result<(), String> {
        if status != 200 {
            return Err(format!("status {status}"));
        }
        match self {
            Expected::Exact(want) if want.as_slice() == body => Ok(()),
            Expected::Exact(want) => {
                let at = want
                    .iter()
                    .zip(body)
                    .position(|(a, b)| a != b)
                    .unwrap_or(want.len().min(body.len()));
                Err(format!(
                    "body differs at byte {at} ({} bytes expected, {} received)",
                    want.len(),
                    body.len()
                ))
            }
            Expected::Health => {
                let text = String::from_utf8_lossy(body);
                if text.starts_with('{') && text.contains("\"status\": \"ok\"") {
                    Ok(())
                } else {
                    Err("healthz body is not an ok status object".into())
                }
            }
        }
    }
}

/// Checks a CLI run: exit code 0 and stdout matching the recorded digest.
pub fn check_cli(code: i32, stdout: &[u8], want: Digest) -> Result<(), String> {
    if code != 0 {
        return Err(format!("exit code {code}"));
    }
    let got = Digest::of(stdout);
    if got == want {
        Ok(())
    } else {
        Err(format!("stdout digest {got}, recorded {want}"))
    }
}

/// Attempted/failed counts plus the first few failure messages.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure messages (bounded).
    pub samples: Vec<String>,
}

impl Tally {
    /// Failure messages kept for the report.
    const KEEP: usize = 5;

    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.samples.len() < Self::KEEP {
                self.samples.push(msg);
            }
        }
    }

    /// Folds another tally in.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for msg in other.samples {
            if self.samples.len() < Self::KEEP {
                self.samples.push(msg);
            }
        }
    }

    /// Failed operations ÷ attempted (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_flipped_byte_is_rejected() {
        let body = br#"{"system": "polaris", "water_l": 12345.678}"#.to_vec();
        let exact = Expected::Exact(body.clone());
        assert!(exact.check(200, &body).is_ok());
        for at in 0..body.len() {
            for bit in 0..8 {
                let mut flipped = body.clone();
                flipped[at] ^= 1 << bit;
                assert!(exact.check(200, &flipped).is_err(), "byte {at} bit {bit}");
                let want = Digest::of(&body);
                assert!(check_cli(0, &flipped, want).is_err(), "byte {at} bit {bit}");
            }
        }
        assert!(check_cli(0, &body, Digest::of(&body)).is_ok());
    }

    #[test]
    fn status_truncation_and_exit_codes_fail() {
        let body = b"{\"a\": 1}".to_vec();
        let exact = Expected::Exact(body.clone());
        assert!(exact.check(500, &body).is_err());
        assert!(exact.check(200, &body[..body.len() - 1]).is_err());
        assert!(check_cli(2, &body, Digest::of(&body)).is_err());
        assert!(Expected::Health
            .check(200, b"{\n  \"status\": \"ok\",\n  \"uptime_seconds\": 3\n}")
            .is_ok());
        assert!(Expected::Health
            .check(503, b"{\"status\": \"ok\"}")
            .is_err());
        assert!(Expected::Health
            .check(200, b"{\"status\": \"down\"}")
            .is_err());
    }

    #[test]
    fn failed_ratio_counts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_ratio(), 0.0);
        for i in 0..8 {
            t.record(if i % 4 == 0 {
                Err(format!("op {i}"))
            } else {
                Ok(())
            });
        }
        assert_eq!((t.attempted, t.failed), (8, 2));
        assert_eq!(t.failed_ratio(), 0.25);
        let mut other = Tally::default();
        other.record(Ok(()));
        other.record(Err("late".into()));
        t.absorb(other);
        assert_eq!((t.attempted, t.failed), (10, 3));
        assert_eq!(t.failed_ratio(), 0.3);
        assert_eq!(t.samples, vec!["op 0", "op 4", "late"]);
    }
}
