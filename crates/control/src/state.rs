//! The persistent sweep queue.
//!
//! One sweep per line in `<state-dir>/queue.tsv`, tab-separated, with
//! the worker argument vector joined by an ASCII unit separator (no
//! argument may contain a tab, newline, or unit separator — submission
//! rejects those, so the encoding never needs escaping). The file is
//! rewritten whole through a temp-file rename, so a crash mid-persist
//! leaves the previous generation intact.
//!
//! Crash recovery is a *demotion*: a sweep recorded as `running` or
//! `merging` reloads as `pending`. That is correct, not optimistic,
//! because shard workers deposit every finished cell in the shared cell
//! cache — when the daemon restarts and re-deals the sweep, its workers
//! `--resume` straight past the cached cells and only the orphaned
//! remainder re-executes.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Joins the argument vector on disk; rejected inside arguments.
const ARG_SEP: char = '\x1f';

/// Lifecycle of one submitted sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SweepState {
    /// Queued, not yet dealt to workers.
    Pending,
    /// Shard workers are executing cells.
    Running,
    /// All shards done; the merge run is rendering artifacts.
    Merging,
    /// Merge finished; artifacts are on disk.
    Done,
    /// A shard or the merge exhausted its retries (see the error field).
    Failed,
    /// Cancelled by request; workers killed, artifacts removed.
    Cancelled,
}

impl SweepState {
    /// Stable on-disk / over-the-wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            SweepState::Pending => "pending",
            SweepState::Running => "running",
            SweepState::Merging => "merging",
            SweepState::Done => "done",
            SweepState::Failed => "failed",
            SweepState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`SweepState::as_str`].
    pub fn parse(s: &str) -> Option<SweepState> {
        Some(match s {
            "pending" => SweepState::Pending,
            "running" => SweepState::Running,
            "merging" => SweepState::Merging,
            "done" => SweepState::Done,
            "failed" => SweepState::Failed,
            "cancelled" => SweepState::Cancelled,
            _ => return None,
        })
    }

    /// True once the sweep can never change state again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SweepState::Done | SweepState::Failed | SweepState::Cancelled
        )
    }
}

/// One submitted sweep: an experiment name, the worker-safe argument
/// vector forwarded verbatim to every worker and the merge, and how
/// many shard workers to deal it across.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Queue-assigned id, unique within a state directory's lifetime.
    pub id: u64,
    /// Experiment name: an entry of [`sprout_bench::experiments::EXPERIMENTS`]
    /// or `all`.
    pub experiment: String,
    /// Shard worker count (`--shard i/workers` per worker).
    pub workers: usize,
    /// Worker-safe flags, validated at submit time.
    pub args: Vec<String>,
    /// Current lifecycle state.
    pub state: SweepState,
    /// Total worker restarts (death, wedge, or merge retry) so far.
    pub retries: u64,
    /// Human-readable failure reason; empty unless `Failed`.
    pub error: String,
}

/// The durable queue: an in-memory sweep list mirrored to `queue.tsv`.
pub struct Queue {
    path: PathBuf,
    sweeps: Vec<SweepSpec>,
    next_id: u64,
}

/// True when `arg` can be stored losslessly in the line format.
pub fn storable_arg(arg: &str) -> bool {
    !arg.is_empty() && !arg.contains(['\t', '\n', '\r', ARG_SEP])
}

impl Queue {
    /// Load the queue from `state_dir` (creating the directory if
    /// needed), demoting mid-flight sweeps to `pending`.
    pub fn open(state_dir: &Path) -> io::Result<Queue> {
        std::fs::create_dir_all(state_dir)?;
        let path = state_dir.join("queue.tsv");
        let mut sweeps = Vec::new();
        let mut next_id = 1;
        if let Ok(contents) = std::fs::read_to_string(&path) {
            for line in contents.lines() {
                let mut spec = Self::decode(line).ok_or_else(|| {
                    io::Error::other(format!("corrupt queue line in {path:?}: {line:?}"))
                })?;
                if matches!(spec.state, SweepState::Running | SweepState::Merging) {
                    spec.state = SweepState::Pending;
                }
                next_id = next_id.max(spec.id + 1);
                sweeps.push(spec);
            }
        }
        Ok(Queue {
            path,
            sweeps,
            next_id,
        })
    }

    /// Append a new pending sweep and persist. The caller has already
    /// validated `experiment` and `args`; this only enforces that every
    /// argument survives the line format.
    pub fn submit(
        &mut self,
        experiment: &str,
        workers: usize,
        args: Vec<String>,
    ) -> io::Result<u64> {
        if let Some(bad) = args.iter().find(|a| !storable_arg(a)) {
            return Err(io::Error::other(format!(
                "argument {bad:?} cannot be stored (empty or contains a control character)"
            )));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.sweeps.push(SweepSpec {
            id,
            experiment: experiment.to_string(),
            workers,
            args,
            state: SweepState::Pending,
            retries: 0,
            error: String::new(),
        });
        self.persist()?;
        Ok(id)
    }

    /// All sweeps, submission order.
    pub fn sweeps(&self) -> &[SweepSpec] {
        &self.sweeps
    }

    /// Look up one sweep.
    pub fn get(&self, id: u64) -> Option<&SweepSpec> {
        self.sweeps.iter().find(|s| s.id == id)
    }

    /// Mutable lookup (caller persists after mutating).
    pub fn get_mut(&mut self, id: u64) -> Option<&mut SweepSpec> {
        self.sweeps.iter_mut().find(|s| s.id == id)
    }

    /// The oldest pending sweep, if any.
    pub fn first_pending(&self) -> Option<u64> {
        self.sweeps
            .iter()
            .find(|s| s.state == SweepState::Pending)
            .map(|s| s.id)
    }

    /// Rewrite `queue.tsv` atomically (temp file + rename).
    pub fn persist(&self) -> io::Result<()> {
        let tmp = self.path.with_extension("tsv.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            for spec in &self.sweeps {
                writeln!(f, "{}", Self::encode(spec))?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)
    }

    fn encode(spec: &SweepSpec) -> String {
        // The error field is free text: squash anything that would
        // break the line format rather than escaping it.
        let error: String = spec
            .error
            .chars()
            .map(|c| {
                if c == '\t' || c == '\n' || c == '\r' {
                    ' '
                } else {
                    c
                }
            })
            .collect();
        let mut args = String::new();
        for (i, arg) in spec.args.iter().enumerate() {
            if i > 0 {
                args.push(ARG_SEP);
            }
            args.push_str(arg);
        }
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            spec.id,
            spec.experiment,
            spec.workers,
            spec.state.as_str(),
            spec.retries,
            error,
            args
        )
    }

    fn decode(line: &str) -> Option<SweepSpec> {
        let mut parts = line.splitn(7, '\t');
        let id = parts.next()?.parse().ok()?;
        let experiment = parts.next()?.to_string();
        let workers = parts.next()?.parse().ok()?;
        let state = SweepState::parse(parts.next()?)?;
        let retries = parts.next()?.parse().ok()?;
        let error = parts.next()?.to_string();
        let args_field = parts.next()?;
        let args = if args_field.is_empty() {
            Vec::new()
        } else {
            args_field.split(ARG_SEP).map(str::to_string).collect()
        };
        Some(SweepSpec {
            id,
            experiment,
            workers,
            args,
            state,
            retries,
            error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_state_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "sprout-control-state-test-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn queue_round_trips_and_demotes_midflight_sweeps() {
        let dir = temp_state_dir("roundtrip");
        let mut q = Queue::open(&dir).unwrap();
        let a = q
            .submit("soak", 2, vec!["--secs".into(), "40".into()])
            .unwrap();
        let b = q.submit("fig1", 1, vec![]).unwrap();
        assert_eq!((a, b), (1, 2));
        q.get_mut(a).unwrap().state = SweepState::Running;
        q.get_mut(a).unwrap().retries = 3;
        q.get_mut(b).unwrap().state = SweepState::Done;
        q.persist().unwrap();

        let reloaded = Queue::open(&dir).unwrap();
        // Mid-flight work demotes to pending; terminal states survive.
        let ra = reloaded.get(a).unwrap();
        assert_eq!(ra.state, SweepState::Pending);
        assert_eq!(ra.retries, 3);
        assert_eq!(ra.args, vec!["--secs".to_string(), "40".to_string()]);
        assert_eq!(reloaded.get(b).unwrap().state, SweepState::Done);
        // Ids never recycle across a restart.
        let mut reloaded = reloaded;
        assert_eq!(reloaded.submit("fig2", 1, vec![]).unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unstorable_arguments_are_rejected() {
        let dir = temp_state_dir("badargs");
        let mut q = Queue::open(&dir).unwrap();
        assert!(q.submit("soak", 1, vec!["a\tb".into()]).is_err());
        assert!(q.submit("soak", 1, vec![String::new()]).is_err());
        assert!(q.sweeps().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
