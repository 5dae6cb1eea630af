//! Wide-event forensics spills: `events_<seed>_<case>.jsonl`.
//!
//! The pipeline never writes files on the hot path — kept events live
//! in the in-memory ring, and a spill is a snapshot of that ring,
//! written on demand (a failing chaos case, a poisoned durable handle,
//! or an explicit test hook). One JSON object per line, so the
//! artifact streams straight into `jq`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use mabe_trace::dump::{sanitize, DEFAULT_DIR, DIR_ENV};

/// The spill body: a self-describing header line, then one JSON object
/// per retained event, oldest first.
pub fn spill_jsonl(seed: u64, case: &str) -> String {
    let pipeline = crate::global();
    let mut out = format!(
        "{{\"format\":\"mabe-events-spill/v1\",\"seed\":{seed},\
         \"case\":\"{}\",\"emitted\":{},\"kept\":{},\"ring_dropped\":{}}}\n",
        mabe_telemetry::export::json_escape(case),
        pipeline.emitted(),
        pipeline.kept(),
        pipeline.ring().dropped(),
    );
    for event in pipeline.ring().snapshot() {
        out.push_str(&event.to_json());
        out.push('\n');
    }
    out
}

/// Writes `events_<seed>_<case>.jsonl` into `dir` (created if absent)
/// and returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn dump_to(dir: &Path, seed: u64, case: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("events_{seed}_{}.jsonl", sanitize(case)));
    fs::write(&path, spill_jsonl(seed, case))?;
    Ok(path)
}

/// Spills only when the forensics directory
/// ([`mabe_trace::dump::DIR_ENV`]) is set — library hook sites (e.g.
/// durable-handle poisoning) call this so production-shaped runs stay
/// silent. Write failures are reported on stderr, never fatal.
pub fn dump_if_configured(seed: u64, case: &str) -> Option<PathBuf> {
    let dir = std::env::var_os(DIR_ENV)?;
    match dump_to(Path::new(&dir), seed, case) {
        Ok(path) => {
            eprintln!("# wide events spilled to {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("# wide-event spill for {case} failed: {e}");
            None
        }
    }
}

/// A panic guard for test harnesses, the wide-event sibling of
/// `mabe_trace::FailureDump`: if the scope unwinds, the kept-event
/// ring is spilled to `events_<seed>_<case>.jsonl` in the forensics
/// directory ([`mabe_trace::dump::DIR_ENV`], or its `DEFAULT_DIR`)
/// before the panic continues — so every trace artifact a failing chaos
/// case leaves behind has a matching event spill beside it to join
/// against by `trace_id`.
pub struct EventsDump {
    seed: u64,
    case: String,
    dir: Option<PathBuf>,
}

impl EventsDump {
    /// A guard spilling as `events_<seed>_<case>.jsonl` on panic.
    pub fn new(seed: u64, case: impl Into<String>) -> Self {
        EventsDump {
            seed,
            case: case.into(),
            dir: None,
        }
    }

    /// Overrides the spill directory (tests use a temp dir).
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    fn target_dir(&self) -> PathBuf {
        self.dir.clone().unwrap_or_else(|| {
            std::env::var_os(DIR_ENV)
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from(DEFAULT_DIR))
        })
    }
}

impl Drop for EventsDump {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        match dump_to(&self.target_dir(), self.seed, &self.case) {
            Ok(path) => eprintln!(
                "# {} failed: wide events spilled to {}",
                self.case,
                path.display()
            ),
            Err(e) => eprintln!("# wide-event spill for {} failed: {e}", self.case),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_to_writes_a_self_describing_jsonl() {
        let dir = std::env::temp_dir().join("mabe-events-dump-test");
        let path = dump_to(&dir, 11, "unit case").unwrap();
        assert!(path.ends_with("events_11_unit_case.jsonl"));
        let body = fs::read_to_string(&path).unwrap();
        let header = body.lines().next().unwrap();
        assert!(header.contains("\"format\":\"mabe-events-spill/v1\""));
        assert!(header.contains("\"seed\":11"));
        assert!(header.contains("\"case\":\"unit case\""));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn events_dump_fires_only_on_panic() {
        let dir = std::env::temp_dir().join("mabe-events-guard-test");
        let _ = fs::remove_dir_all(&dir);
        {
            let _guard = EventsDump::new(1, "clean").with_dir(&dir);
        }
        assert!(!dir.join("events_1_clean.jsonl").exists());
        let dir2 = dir.clone();
        let result = std::panic::catch_unwind(move || {
            let _guard = EventsDump::new(2, "boom").with_dir(&dir2);
            panic!("deliberate");
        });
        assert!(result.is_err());
        assert!(dir.join("events_2_boom.jsonl").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_hook_is_silent_without_the_env_var() {
        if std::env::var_os(DIR_ENV).is_none() {
            assert!(dump_if_configured(3, "no-dir").is_none());
        }
    }
}
