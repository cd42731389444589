//! Where a fuzz test's cases come from, and the command that replays one.
//!
//! Four integration-test binaries fuzz the engines, and each owns one
//! family of cases (a [`FuzzTest`]).  Every one of them runs exactly the
//! cases of its [`FuzzTest::sweep`]: the single case named by
//! `NOMAD_FUZZ_REPLAY` when that is set, otherwise its family's cases for
//! every seed below `NOMAD_FUZZ_SEEDS` (default [`DEFAULT_SEEDS`]).  Only
//! [`FuzzTest::sweep`] reads the environment; the rules live in the pure
//! [`FuzzTest::sweep_from`], which refuses an unparsable or zero seed
//! count, an unparsable replay pair and a replayed case from another
//! test's family — naming the variable, or the test that owns the case.

use super::strategy::{FuzzCase, Strategy};

/// Seeds a sweep runs when `NOMAD_FUZZ_SEEDS` is unset.
pub const DEFAULT_SEEDS: u64 = 4;

/// One fuzz test binary: the family of cases it owns and the command that
/// runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuzzTest {
    /// `nomad-core`'s `sched_fuzz`: the threaded engine under the
    /// scheduling strategies.
    CoreSchedule,
    /// `nomad-net`'s `sched_fuzz`: the loopback mesh under the scheduling
    /// strategies.
    NetSchedule,
    /// `nomad-net`'s `chaos`: a crash or partition during training.
    Chaos,
    /// `nomad-net`'s `serve_chaos`: a crash or partition under query load.
    ServeChaos,
}

impl FuzzTest {
    /// Every fuzz test.
    pub const ALL: [FuzzTest; 4] = [
        FuzzTest::CoreSchedule,
        FuzzTest::NetSchedule,
        FuzzTest::Chaos,
        FuzzTest::ServeChaos,
    ];

    /// The command that runs this test, with the hooks compiled in so the
    /// turnstile steers the schedule it replays.
    pub fn command(self) -> &'static str {
        match self {
            FuzzTest::CoreSchedule => {
                "cargo test -p nomad-core --features sched-fuzz --test sched_fuzz"
            }
            FuzzTest::NetSchedule => {
                "cargo test -p nomad-net --features sched-fuzz --test sched_fuzz"
            }
            FuzzTest::Chaos => "cargo test -p nomad-net --features sched-fuzz --test chaos",
            FuzzTest::ServeChaos => {
                "cargo test -p nomad-net --features sched-fuzz --test serve_chaos"
            }
        }
    }

    /// The command that re-runs exactly `case` through this test.
    pub fn replay(self, case: FuzzCase) -> String {
        format!("NOMAD_FUZZ_REPLAY={case} {}", self.command())
    }

    /// Whether `strategy` is in this test's family: the schedule tests own
    /// the scheduling strategies, the chaos tests the stepped faults.
    pub fn owns(self, strategy: Strategy) -> bool {
        let fault = matches!(strategy, Strategy::Crash(_) | Strategy::Partition(_));
        fault == matches!(self, FuzzTest::Chaos | FuzzTest::ServeChaos)
    }

    /// The cases this test runs, from `NOMAD_FUZZ_SEEDS` and
    /// `NOMAD_FUZZ_REPLAY` (see [`FuzzTest::sweep_from`]).
    ///
    /// # Panics
    /// Panics, naming the variable or the owning test, where
    /// [`FuzzTest::sweep_from`] refuses.
    pub fn sweep<I>(self, family: impl Fn(u64) -> I) -> Vec<FuzzCase>
    where
        I: IntoIterator<Item = FuzzCase>,
    {
        let set = |name: &str, value| match value {
            Ok(value) => Some(value),
            Err(std::env::VarError::NotPresent) => None,
            Err(e) => panic!("bad {name}: {e}"),
        };
        let seeds = set("NOMAD_FUZZ_SEEDS", std::env::var("NOMAD_FUZZ_SEEDS"));
        let replay = set("NOMAD_FUZZ_REPLAY", std::env::var("NOMAD_FUZZ_REPLAY"));
        let cases = self
            .sweep_from(seeds.as_deref(), replay.as_deref(), family)
            .unwrap_or_else(|why| panic!("{why}"));
        match replay {
            Some(_) => eprintln!("{self:?}: replaying {}", cases[0]),
            None => eprintln!("{self:?}: sweeping {} cases", cases.len()),
        }
        cases
    }

    /// The pure rule behind [`FuzzTest::sweep`]: `replay` (a `strategy@seed`
    /// pair) wins and yields that one case; otherwise `family(seed)` for
    /// every seed below `seeds` (default [`DEFAULT_SEEDS`]).  A seed count
    /// that is not a positive integer is refused even beside a replay; so
    /// are a pair that does not parse and a case this test does not own.
    pub fn sweep_from<I>(
        self,
        seeds: Option<&str>,
        replay: Option<&str>,
        family: impl Fn(u64) -> I,
    ) -> Result<Vec<FuzzCase>, String>
    where
        I: IntoIterator<Item = FuzzCase>,
    {
        let seeds = match seeds {
            None => DEFAULT_SEEDS,
            Some(v) => v.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                format!("bad NOMAD_FUZZ_SEEDS {v:?}: expected a positive number of seeds")
            })?,
        };
        let Some(spec) = replay else {
            return Ok((0..seeds).flat_map(family).collect());
        };
        let case: FuzzCase = spec
            .parse()
            .map_err(|e| format!("bad NOMAD_FUZZ_REPLAY {spec:?}: {e}"))?;
        if self.owns(case.strategy) {
            return Ok(vec![case]);
        }
        let owners: Vec<String> = FuzzTest::ALL
            .into_iter()
            .filter(|test| test.owns(case.strategy))
            .map(|test| format!("`{}`", test.replay(case)))
            .collect();
        Err(format!(
            "NOMAD_FUZZ_REPLAY={case} is not a case of `{}`; replay it with {}",
            self.command(),
            owners.join(" or ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schedule tests' family: every scheduling strategy per seed.
    fn every_strategy(seed: u64) -> [FuzzCase; 3] {
        Strategy::ALL.map(|s| FuzzCase::new(seed, s))
    }

    #[test]
    fn a_replay_wins_over_the_seed_count() {
        let cases = FuzzTest::NetSchedule.sweep_from(Some("9"), Some("burst@0x2"), every_strategy);
        assert_eq!(cases, Ok(vec![FuzzCase::new(2, Strategy::Burst)]));
    }

    #[test]
    fn the_default_is_four_seeds_of_the_family() {
        let cases = FuzzTest::CoreSchedule
            .sweep_from(None, None, every_strategy)
            .unwrap();
        assert_eq!(cases.len(), 12);
        assert_eq!(cases[..3], every_strategy(0));
        assert_eq!(cases[9..], every_strategy(3));
    }

    #[test]
    fn a_bad_seed_count_is_refused_naming_the_variable() {
        for bad in ["1e3", "-1", "", "four"] {
            let why = FuzzTest::Chaos
                .sweep_from(Some(bad), None, every_strategy)
                .unwrap_err();
            assert!(why.contains("NOMAD_FUZZ_SEEDS"), "{bad:?}: {why}");
        }
        let why = FuzzTest::Chaos
            .sweep_from(None, Some("pct@zzz"), every_strategy)
            .unwrap_err();
        assert!(why.contains("NOMAD_FUZZ_REPLAY"), "{why}");
    }

    #[test]
    fn zero_seeds_is_refused() {
        let why = FuzzTest::ServeChaos
            .sweep_from(Some("0"), None, every_strategy)
            .unwrap_err();
        assert!(why.contains("NOMAD_FUZZ_SEEDS"), "{why}");
    }

    #[test]
    fn a_case_from_another_family_is_refused_naming_its_tests() {
        let why = FuzzTest::CoreSchedule
            .sweep_from(None, Some("crash@11@0x1"), every_strategy)
            .unwrap_err();
        assert!(why.contains("--test chaos"), "{why}");
        assert!(why.contains("--test serve_chaos"), "{why}");
        assert!(
            !why.contains("crash@11@0x1 cargo test -p nomad-core"),
            "{why}"
        );
        let why = FuzzTest::ServeChaos
            .sweep_from(None, Some("pct@0x0"), every_strategy)
            .unwrap_err();
        assert!(
            why.contains(&FuzzTest::CoreSchedule.replay(FuzzCase::new(0, Strategy::Pct))),
            "{why}"
        );
    }
}
