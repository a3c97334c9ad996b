//! `SLO.toml`: the budgets of the two SLO-backed `repro` gates.
//!
//! Workload sections (`[ysb]`, `[nb7]`) hold the tail-latency stage
//! budgets `repro latency` enforces; `[rescale] migration_stall_ns` bounds
//! the worst cutover stall `repro rescale` reports. [`read`] is the one
//! reader of the file and covers the TOML subset it uses: `[section]`
//! headers, `key = value` lines whose value is a plain decimal integer, and
//! `#` comments. Anything else is an error, so a budget can never be
//! silently dropped.

use slash_desim::SimTime;

/// Every budget in `SLO.toml`, all in virtual nanoseconds.
#[derive(Debug)]
pub struct Slo {
    /// Stage budgets, in file order: `(workload, "{stage}_{quantile}", ns)`.
    pub stage_budgets: Vec<(String, String, u64)>,
    /// `[rescale] migration_stall_ns`: worst halt → commit cutover stall of
    /// any planned partition handoff.
    pub migration_stall: SimTime,
}

/// Read and parse `path`. Errors name the file and line; a missing file,
/// a key outside any section, a value that is not a plain integer and a
/// missing `[rescale] migration_stall_ns` are all errors.
pub fn read(path: &str) -> Result<Slo, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    let mut stage_budgets = Vec::new();
    let mut migration_stall = None;
    let mut section = "";
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim();
            continue;
        }
        let at = format!("{path}:{}", ln + 1);
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("{at}: expected `key = value`, got {line:?}"));
        };
        let (key, value) = (key.trim(), value.trim());
        if section.is_empty() {
            return Err(format!("{at}: budget {key:?} outside any [section]"));
        }
        let Ok(ns) = value.parse::<u64>() else {
            return Err(format!(
                "{at}: {key} must be a plain integer of nanoseconds, got {value:?}"
            ));
        };
        match (section, key) {
            ("rescale", "migration_stall_ns") => migration_stall = Some(SimTime::from_nanos(ns)),
            ("rescale", _) => return Err(format!("{at}: unknown [rescale] key {key:?}")),
            _ => stage_budgets.push((section.to_string(), key.to_string(), ns)),
        }
    }
    Ok(Slo {
        stage_budgets,
        migration_stall: migration_stall
            .ok_or_else(|| format!("{path}: no [rescale] migration_stall_ns budget"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Write `text` to a scratch `SLO.toml` named after the test and read it.
    fn read_text(name: &str, text: &str) -> Result<Slo, String> {
        let dir = std::env::temp_dir().join(format!("slash_slo_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("SLO.toml");
        std::fs::write(&path, text).unwrap();
        read(path.to_str().unwrap())
    }

    #[test]
    fn reads_stage_budgets_and_the_rescale_section() {
        let slo = read_text(
            "ok",
            "# header\n[ysb]\nend_to_end_p99_99 = 2400 # inline\n\
             [rescale]\n# worst halt -> commit span\nmigration_stall_ns = 750000\n\
             [nb7]\nsource_p99_99 = 15\n",
        )
        .unwrap();
        assert_eq!(
            slo.stage_budgets,
            vec![
                ("ysb".into(), "end_to_end_p99_99".into(), 2400),
                ("nb7".into(), "source_p99_99".into(), 15),
            ]
        );
        assert_eq!(slo.migration_stall, SimTime::from_micros(750));
    }

    #[test]
    fn the_checked_in_file_parses() {
        let slo = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../../SLO.toml")).unwrap();
        assert!(!slo.stage_budgets.is_empty());
        assert_eq!(slo.migration_stall, SimTime::from_millis(1));
    }

    #[test]
    fn a_missing_file_is_an_error() {
        let err = read("/nonexistent/SLO.toml").unwrap_err();
        assert!(err.contains("could not read"), "{err}");
    }

    #[test]
    fn a_missing_stall_budget_is_an_error() {
        let err = read_text("no_stall", "[ysb]\nsource_p99_99 = 15\n[rescale]\n").unwrap_err();
        assert!(err.contains("no [rescale] migration_stall_ns"), "{err}");
    }

    #[test]
    fn a_value_that_is_not_a_plain_integer_is_an_error() {
        // TOML's digit separators included: the reader's subset has none,
        // and an unread budget must not switch its gate off.
        for value in ["1_000_000", "1.5", "\"1000\"", ""] {
            let err = read_text(
                "not_int",
                &format!("[rescale]\nmigration_stall_ns = {value}\n"),
            )
            .unwrap_err();
            assert!(err.contains("must be a plain integer"), "{value:?}: {err}");
        }
    }

    #[test]
    fn a_budget_outside_any_section_is_an_error() {
        let err = read_text(
            "no_section",
            "regression_factor = 1\n[rescale]\nmigration_stall_ns = 1000000\n",
        )
        .unwrap_err();
        assert!(err.contains("outside any [section]"), "{err}");
    }
}
