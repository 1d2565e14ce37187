//! Seeded mutation test of the two resume paths: a checkpoint is JSON
//! from outside the program, so no single edit of one may panic it.
//!
//! The inputs are the pinned `golden/checkpoint_16x16_flush.json`, the
//! checkpoints of a noisy 16² canned cycle stopped at the start of each of
//! its phases, and the group checkpoint of a 2×1 shard group. Each mutant
//! sets one number under `state`, `ctx` or `shards` to one of
//! [`VALUES`], or deletes one array element there. Every mutant must fail
//! to decode, be refused (`StopCause::Rejected`, a `ResumeError`), or run
//! to its end, and none may panic (checked under `catch_unwind`). The
//! protocol is never mutated: its sizes are not bounded yet, and a huge
//! `Sense.frames` would run for hours rather than fail.
//!
//! Every `cargo test` resumes a seeded sample of at most
//! [`SAMPLED_RESUMES`] mutants; the full sweep is the `#[ignore]`d twin:
//!
//! ```text
//! cargo test --release -p labchip-integration-tests --test checkpoint_mutation -- --ignored
//! ```

use labchip::workload::{
    BatchDriver, Checkpoint, Protocol, RecoveryPolicy, RunControl, RunOptions, Start, StopCause,
    WorkloadConfig,
};
use labchip_farm::{GroupCheckpoint, GroupKill, ShardGroup};
use labchip_units::GridDims;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};

const PINNED_CHECKPOINT: &str = include_str!("golden/checkpoint_16x16_flush.json");

/// The numbers a mutant writes: the grid's edges and their neighbours on
/// the 16² chip, an off-grid cell and the largest `u32`.
const VALUES: [u64; 7] = [0, 1, 15, 16, 17, 99, 4_294_967_295];

/// The resume budget of the sampled sweep.
const SAMPLED_RESUMES: usize = 300;

/// The configuration the pinned checkpoint was written under: 16²,
/// noisy sensing, recovery on.
fn config() -> WorkloadConfig {
    WorkloadConfig {
        array_side: 16,
        noise_scale: 8.0,
        detection_frames: 2,
        recovery: RecoveryPolicy::date05_reference(),
        seed: 2005,
        ..WorkloadConfig::default()
    }
}

fn protocol(config: &WorkloadConfig) -> Protocol {
    Protocol::canned_cycle(
        GridDims::square(config.array_side),
        config.min_separation.max(1),
        6,
    )
}

/// Stops a run at the start of one phase.
struct StopAt(usize);

impl RunControl for StopAt {
    fn should_stop(&self, next_phase: usize) -> bool {
        next_phase == self.0
    }
}

/// One step of a path into a JSON document.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// One edit: a number written at `path`, or the array element at `path`
/// deleted.
struct Mutant {
    input: usize,
    path: Vec<Step>,
    number: Option<u64>,
}

impl Mutant {
    fn describe(&self) -> String {
        let path: Vec<String> = self
            .path
            .iter()
            .map(|step| match step {
                Step::Key(key) => key.clone(),
                Step::Index(index) => index.to_string(),
            })
            .collect();
        match self.number {
            Some(number) => format!("input {}: {} = {number}", self.input, path.join(".")),
            None => format!("input {}: delete {}", self.input, path.join(".")),
        }
    }

    /// The input document with this edit applied, as JSON text.
    fn apply(&self, root: &Value) -> String {
        let mut root = root.clone();
        let (last, parents) = self.path.split_last().expect("a non-empty path");
        let parent = parents.iter().fold(&mut root, child);
        match (self.number, parent, last) {
            (Some(number), parent, last) => *child(parent, last) = Value::Number(number.into()),
            (None, Value::Array(items), Step::Index(index)) => drop(items.remove(*index)),
            _ => unreachable!("deletions address array elements"),
        }
        serde_json::to_string(&root)
    }
}

fn child<'v>(value: &'v mut Value, step: &Step) -> &'v mut Value {
    match (value, step) {
        (Value::Object(map), Step::Key(key)) => map.get_mut(key).expect("a walked key"),
        (Value::Array(items), Step::Index(index)) => &mut items[*index],
        _ => unreachable!("paths come from the walk"),
    }
}

/// Every mutant of the subtree at `path`.
fn walk(input: usize, value: &Value, path: &mut Vec<Step>, out: &mut Vec<Mutant>) {
    let mutant = |path: &[Step], number| Mutant {
        input,
        path: path.to_vec(),
        number,
    };
    match value {
        Value::Number(_) => out.extend(VALUES.map(|v| mutant(path, Some(v)))),
        Value::Array(items) => {
            for (index, item) in items.iter().enumerate() {
                path.push(Step::Index(index));
                out.push(mutant(path, None));
                walk(input, item, path, out);
                path.pop();
            }
        }
        Value::Object(map) => {
            for (key, item) in map.iter() {
                path.push(Step::Key(key.clone()));
                walk(input, item, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

/// A checkpoint document and how to resume it.
enum Input {
    Driver(Value),
    Group(Value),
}

impl Input {
    fn root(&self) -> &Value {
        match self {
            Input::Driver(root) | Input::Group(root) => root,
        }
    }

    fn mutable_keys(&self) -> &'static [&'static str] {
        match self {
            Input::Driver(_) => &["state", "ctx"],
            Input::Group(_) => &["shards"],
        }
    }
}

/// The pinned checkpoint, one checkpoint per phase start, and a 2×1
/// group checkpoint.
fn inputs(driver: &BatchDriver, group: &ShardGroup) -> Vec<Input> {
    let parse = |text: &str| serde_json::from_str::<Value>(text).expect("a checkpoint is JSON");
    let mut inputs = vec![Input::Driver(parse(PINNED_CHECKPOINT))];
    let protocol = protocol(driver.config());
    for phase in 0..protocol.len() {
        let control = StopAt(phase);
        let start = Start::Fresh {
            protocol: &protocol,
            cycle: 0,
        };
        let options = RunOptions {
            control: &control,
            ..RunOptions::default()
        };
        let stopped = driver
            .execute(start, options)
            .expect_err("every phase start is a stop point");
        assert_eq!(stopped.checkpoint.next_phase, phase);
        inputs.push(Input::Driver(parse(&stopped.checkpoint.to_json())));
    }
    let (_, checkpoint) = group.run_killed(GroupKill {
        shard: 0,
        boundary: 2,
    });
    inputs.push(Input::Group(parse(&checkpoint.to_json())));
    inputs
}

/// What one mutant did.
#[derive(Debug, Default)]
struct Tally {
    undecodable: usize,
    refused: usize,
    completed: usize,
    panics: Vec<String>,
}

impl Tally {
    fn resumes(&self) -> usize {
        self.refused + self.completed + self.panics.len()
    }
}

/// Runs mutants until `budget` of them reach a resume.
fn sweep(budget: usize, sampled: bool) -> Tally {
    let driver = BatchDriver::new(config());
    let group = ShardGroup::plan(&config(), &protocol(&config()), 2, 1);
    let inputs = inputs(&driver, &group);
    let mut mutants = Vec::new();
    for (index, input) in inputs.iter().enumerate() {
        for &key in input.mutable_keys() {
            let mut path = vec![Step::Key(key.to_string())];
            let subtree = input.root().as_object().and_then(|root| root.get(key));
            let subtree = subtree.expect("a checkpoint field");
            walk(index, subtree, &mut path, &mut mutants);
        }
    }
    if sampled {
        mutants.shuffle(&mut ChaCha8Rng::seed_from_u64(34));
    }
    let mut tally = Tally::default();
    for mutant in mutants {
        if tally.resumes() >= budget {
            break;
        }
        let text = mutant.apply(inputs[mutant.input].root());
        let resumed = match &inputs[mutant.input] {
            Input::Driver(_) => Checkpoint::from_json(&text).map(|checkpoint| {
                catch_unwind(AssertUnwindSafe(|| {
                    match driver.execute(Start::Resume(&checkpoint), RunOptions::default()) {
                        Ok(_) => Ok(()),
                        Err(stopped) => match stopped.cause {
                            StopCause::Rejected(_) => Err(()),
                            cause => panic!("a resume stopped unrefused: {cause:?}"),
                        },
                    }
                }))
            }),
            Input::Group(_) => GroupCheckpoint::from_json(&text).map(|checkpoint| {
                catch_unwind(AssertUnwindSafe(|| {
                    group.resume(&checkpoint).map(drop).map_err(drop)
                }))
            }),
        };
        match resumed {
            Err(_) => tally.undecodable += 1,
            Ok(Ok(Ok(()))) => tally.completed += 1,
            Ok(Ok(Err(()))) => tally.refused += 1,
            Ok(Err(_)) => tally.panics.push(mutant.describe()),
        }
    }
    tally
}

fn check(tally: &Tally) {
    println!("{tally:?}");
    assert!(
        tally.panics.is_empty(),
        "mutants panicked: {:#?}",
        tally.panics
    );
    assert!(
        tally.undecodable > 0 && tally.refused > 0 && tally.completed > 0,
        "{tally:?}"
    );
}

#[test]
fn sampled_checkpoint_mutants_decode_fail_or_resume_without_panicking() {
    let tally = sweep(SAMPLED_RESUMES, true);
    assert_eq!(tally.resumes(), SAMPLED_RESUMES, "{tally:?}");
    check(&tally);
}

#[test]
#[ignore = "the full sweep: run in release"]
fn every_checkpoint_mutant_decode_fails_or_resumes_without_panicking() {
    let tally = sweep(usize::MAX, false);
    check(&tally);
}
