//! Serial `make`: "The serial make program contains a loop that
//! sequentially executes the commands required to rebuild out-of-date
//! files."

use std::collections::HashMap;

use super::makefile::{FileState, Makefile};

/// Result of a (serial) make run: final file states and the targets
/// rebuilt, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerialOutcome {
    /// Final file versions/sizes.
    pub files: HashMap<String, FileState>,
    /// Rebuilt targets in order.
    pub rebuilt: Vec<String>,
    /// Total command work executed.
    pub work: u64,
}

/// A target is out of date when any prerequisite's version exceeds its
/// own.
pub fn out_of_date(files: &HashMap<String, FileState>, target: &str, deps: &[String]) -> bool {
    let tv = files.get(target).map_or(0, |f| f.version);
    deps.iter().any(|d| files.get(d).map_or(0, |f| f.version) > tv)
}

/// Run make serially.
pub fn make_serial(mk: &Makefile) -> SerialOutcome {
    let mut files = mk.files.clone();
    let mut rebuilt = Vec::new();
    let mut work = 0u64;
    for rule in &mk.rules {
        if out_of_date(&files, &rule.target, &rule.deps) {
            let newv =
                rule.deps.iter().map(|d| files.get(d).map_or(0, |f| f.version)).max().unwrap_or(0)
                    + 1;
            files.insert(rule.target.clone(), FileState { version: newv, size: rule.out_size });
            rebuilt.push(rule.target.clone());
            work += rule.cost as u64;
        }
    }
    SerialOutcome { files, rebuilt, work }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everything_stale_rebuilds_everything() {
        let mk = Makefile::project(3, 1e5, 2e5);
        let out = make_serial(&mk);
        assert_eq!(out.rebuilt.len(), mk.rules.len());
        assert!(out.files["app1"].version > 0);
    }

    #[test]
    fn incremental_rebuild_skips_fresh_targets() {
        let mut mk = Makefile::wide(4, 1e5);
        // t0 and t2 already built after the source changed.
        mk.built("t0", 2).built("t2", 2);
        let out = make_serial(&mk);
        assert_eq!(out.rebuilt, vec!["t1", "t3"]);
    }

    #[test]
    fn chain_rebuild_cascades() {
        let mut mk = Makefile::chain(4, 1e5);
        // All built at version 2, then the source changes.
        for i in 0..4 {
            mk.built(&format!("t{i}"), 2);
        }
        mk.source("s", 1_000); // re-adding bumps nothing...
        mk.files.get_mut("s").unwrap().version = 9;
        let out = make_serial(&mk);
        assert_eq!(out.rebuilt, vec!["t0", "t1", "t2", "t3"], "stale source cascades");
    }

    #[test]
    fn up_to_date_project_does_nothing() {
        let mut mk = Makefile::chain(3, 1e5);
        mk.built("t0", 2).built("t1", 3).built("t2", 4);
        let out = make_serial(&mk);
        assert!(out.rebuilt.is_empty());
        assert_eq!(out.work, 0);
    }
}
