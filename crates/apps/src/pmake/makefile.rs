//! Makefile and file-system model.
//!
//! Files are shared objects carrying a version counter (the mtime) and
//! a size; a rule's command reads its prerequisites and rewrites its
//! target — exactly the access declaration the Jade `make` attaches to
//! each recompilation task.

use std::collections::HashMap;

use jade_transport::{PortDecoder, PortEncoder, Portable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The state of one file in the model file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileState {
    /// Modification "time": a monotonically increasing version.
    pub version: u64,
    /// File size in bytes (drives transfer costs in the simulator).
    pub size: usize,
}

/// The version a rebuilt target gets: one past its newest
/// prerequisite's (1 with none).
pub fn rebuild_stamp(dep_versions: impl IntoIterator<Item = u64>) -> u64 {
    dep_versions.into_iter().max().unwrap_or(0) + 1
}

impl Portable for FileState {
    fn encode(&self, enc: &mut PortEncoder) {
        enc.put_u64(self.version);
        enc.put_usize(self.size);
    }
    fn decode(dec: &mut PortDecoder<'_>) -> jade_transport::DecodeResult<Self> {
        Ok(FileState { version: dec.get_u64()?, size: dec.get_usize()? })
    }
    fn size_hint(&self) -> usize {
        self.size.max(16)
    }
}

/// One makefile rule: rebuild `target` from `deps` by running a
/// command costing `cost` work units and producing `out_size` bytes.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Target file name.
    pub target: String,
    /// Prerequisite file names.
    pub deps: Vec<String>,
    /// Command cost in work units.
    pub cost: f64,
    /// Size of the produced target.
    pub out_size: usize,
}

/// A makefile: source files with initial versions, plus rules in
/// written (topological) order.
#[derive(Debug, Clone, Default)]
pub struct Makefile {
    /// Initial state of every file (sources and stale targets).
    pub files: HashMap<String, FileState>,
    /// Rules in dependency (written) order.
    pub rules: Vec<Rule>,
}

impl Makefile {
    /// Add a source file at version 1.
    pub fn source(&mut self, name: &str, size: usize) -> &mut Self {
        self.files.insert(name.to_string(), FileState { version: 1, size });
        self
    }

    /// Add a rule; the target starts out-of-date (version 0).
    pub fn rule(&mut self, target: &str, deps: &[&str], cost: f64, out_size: usize) -> &mut Self {
        self.files.entry(target.to_string()).or_insert(FileState { version: 0, size: out_size });
        self.rules.push(Rule {
            target: target.to_string(),
            deps: deps.iter().map(|d| d.to_string()).collect(),
            cost,
            out_size,
        });
        self
    }

    /// Mark a target as already built at the given version (for
    /// incremental-rebuild scenarios).
    pub fn built(&mut self, target: &str, version: u64) -> &mut Self {
        if let Some(f) = self.files.get_mut(target) {
            f.version = version;
        }
        self
    }

    /// A linear chain: `s -> t0 -> t1 -> ... -> t{n-1}` (no
    /// parallelism; the worst case).
    pub fn chain(n: usize, cost: f64) -> Makefile {
        let mut mk = Makefile::default();
        mk.source("s", 1_000);
        for i in 0..n {
            let dep = if i == 0 { "s".to_string() } else { format!("t{}", i - 1) };
            let tgt = format!("t{i}");
            mk.rule(&tgt, &[dep.as_str()], cost, 4_000);
        }
        mk
    }

    /// `n` independent targets from one source (embarrassingly
    /// parallel).
    pub fn wide(n: usize, cost: f64) -> Makefile {
        let mut mk = Makefile::default();
        mk.source("s", 1_000);
        for i in 0..n {
            mk.rule(&format!("t{i}"), &["s"], cost, 4_000);
        }
        mk
    }

    /// A realistic project: `n` C files each compile to an object,
    /// all objects link into a library, and two apps link against it.
    pub fn project(n: usize, compile_cost: f64, link_cost: f64) -> Makefile {
        let mut mk = Makefile::default();
        mk.source("common.h", 2_000);
        let mut objs: Vec<String> = Vec::new();
        for i in 0..n {
            let c = format!("m{i}.c");
            mk.source(&c, 8_000);
            let o = format!("m{i}.o");
            mk.rule(&o, &[c.as_str(), "common.h"], compile_cost, 12_000);
            objs.push(o);
        }
        let obj_refs: Vec<&str> = objs.iter().map(String::as_str).collect();
        mk.rule("lib.a", &obj_refs, link_cost, 80_000);
        mk.rule("app1", &["lib.a"], link_cost, 90_000);
        mk.rule("app2", &["lib.a"], link_cost, 90_000);
        mk
    }

    /// A random DAG of rules (regression fodder for the dependency
    /// engine). Deterministic in `seed`.
    pub fn random_dag(n: usize, seed: u64) -> Makefile {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mk = Makefile::default();
        mk.source("s0", 500);
        mk.source("s1", 500);
        let mut names: Vec<String> = vec!["s0".to_string(), "s1".to_string()];
        for i in 0..n {
            let tgt = format!("n{i}");
            let k = rng.gen_range(1..=3.min(names.len()));
            let mut deps: Vec<String> = Vec::new();
            for _ in 0..k {
                let d = names[rng.gen_range(0..names.len())].clone();
                if !deps.contains(&d) {
                    deps.push(d);
                }
            }
            let dep_refs: Vec<&str> = deps.iter().map(String::as_str).collect();
            mk.rule(&tgt, &dep_refs, rng.gen_range(1e5..8e5), rng.gen_range(1_000..20_000));
            names.push(tgt);
        }
        mk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_transport::{roundtrip_same, DataLayout};

    #[test]
    fn file_state_is_portable() {
        let f = FileState { version: 42, size: 12345 };
        for l in DataLayout::all_presets() {
            assert_eq!(roundtrip_same(&f, l), f);
        }
    }

    #[test]
    fn builders_produce_expected_shapes() {
        let chain = Makefile::chain(5, 1e5);
        assert_eq!(chain.rules.len(), 5);
        assert_eq!(chain.rules[4].deps, vec!["t3"]);
        let wide = Makefile::wide(8, 1e5);
        assert!(wide.rules.iter().all(|r| r.deps == vec!["s"]));
        let prj = Makefile::project(4, 1e6, 2e6);
        assert_eq!(prj.rules.len(), 4 + 3);
        assert_eq!(prj.rules[4].deps.len(), 4, "lib links all objects");
    }

    #[test]
    fn random_dag_is_topologically_ordered() {
        let mk = Makefile::random_dag(20, 3);
        let mut seen: Vec<&str> = vec!["s0", "s1"];
        for r in &mk.rules {
            for d in &r.deps {
                assert!(seen.contains(&d.as_str()), "{d} used before defined");
            }
            seen.push(&r.target);
        }
    }

    #[test]
    fn built_marks_versions() {
        let mut mk = Makefile::wide(2, 1e5);
        mk.built("t0", 5);
        assert_eq!(mk.files["t0"].version, 5);
        assert_eq!(mk.files["t1"].version, 0);
    }
}
