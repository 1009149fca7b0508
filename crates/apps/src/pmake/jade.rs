//! The Jade `make`: the serial rebuild loop with each command body
//! enclosed in a `withonly` that declares the files the command will
//! access (§7.1).

use std::collections::{HashMap, HashSet};

use jade_core::prelude::*;

use super::makefile::{rebuild_stamp, FileState, Makefile};
use super::serial::out_of_date;

/// Register how a [`FileState`] lowers into the task-body IR's flat
/// `f64` domain: `[version, size]`, both exact below 2⁵³. Idempotent
/// and global (the registry is keyed by type), so calling it per
/// `make_jade` run is free; the distributed backend needs it on the
/// coordinator to ship file payloads to workers.
pub fn register_file_lowering() {
    jade_core::store::register_lowering::<FileState>(
        |f| vec![f.version as f64, f.size as f64],
        |f, data| {
            if data.len() != 2 {
                return false;
            }
            *f = FileState { version: data[0] as u64, size: data[1] as usize };
            true
        },
    );
}

/// Result of a Jade make run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MakeOutcome {
    /// Final file versions/sizes.
    pub files: HashMap<String, FileState>,
    /// Set of rebuilt targets (order is scheduling-dependent, the set
    /// is not).
    pub rebuilt: HashSet<String>,
}

/// Run make under Jade. The main task walks the makefile exactly like
/// the serial program, predicting staleness from the initial file
/// versions (a target is rebuilt if a prerequisite is newer *or will
/// itself be rebuilt*), and generates one task per rebuilt target.
/// The Jade runtime executes commands concurrently "unless one
/// command depends on the result of another command".
pub fn make_jade<C: JadeCtx>(ctx: &mut C, mk: &Makefile) -> MakeOutcome {
    register_file_lowering();
    // Upload the file system.
    let mut handles: HashMap<String, Shared<FileState>> = HashMap::new();
    let mut names: Vec<&String> = mk.files.keys().collect();
    names.sort(); // deterministic object creation order
    for name in names {
        handles.insert(name.clone(), ctx.create_named(name, mk.files[name]));
    }

    // The serial rebuild loop with a withonly around each command.
    // `predicted` tracks what each file's version will be once the
    // generated commands run, so the staleness test here is exactly
    // the serial program's (a rebuilt prerequisite shows up through
    // its predicted version).
    let mut predicted = mk.files.clone();
    let mut rebuilt: HashSet<String> = HashSet::new();
    for rule in &mk.rules {
        if !out_of_date(&predicted, &rule.target, &rule.deps) {
            continue;
        }
        rebuilt.insert(rule.target.clone());
        // Keep the host-side prediction consistent for later rules.
        let pv = rebuild_stamp(rule.deps.iter().map(|d| predicted.get(d).map_or(0, |f| f.version)));
        predicted.insert(rule.target.clone(), FileState { version: pv, size: rule.out_size });

        let target = handles[&rule.target];
        let deps: Vec<Shared<FileState>> = rule.deps.iter().map(|d| handles[d]).collect();
        let cost = rule.cost;
        let out_size = rule.out_size;
        let spec_deps = deps.clone();
        // decl 0 = target (rd_wr, write-only in the IR), decls
        // 1..=ndeps = prerequisites; the `pmake_build` kernel restamps
        // the target from the lowered [version, size] pairs.
        let mut bargs = vec![IrSrc::Lit(vec![deps.len() as f64, out_size as f64])];
        bargs.extend((1..=deps.len()).map(|d| IrSrc::Obj(d as u32)));
        let ir = TaskBodyIr::new().step("pmake_build", bargs, IrDst::Obj(0));
        ctx.withonly_ir(
            &format!("make {}", rule.target),
            |s| {
                s.rd_wr(target);
                for &d in &spec_deps {
                    s.rd(d);
                }
            },
            ir,
            move |c| {
                c.charge(cost);
                // The command reads its prerequisites' actual states —
                // resolved dynamically, after any producing command.
                let newv = rebuild_stamp(deps.iter().map(|d| c.rd(d).version));
                *c.wr(&target) = FileState { version: newv, size: out_size };
            },
        );
    }

    // Collect the final file system (implicitly waits for commands).
    // Sorted so the root task's reads — and hence the object fetches
    // they trigger on message-passing platforms — happen in a fixed
    // order, keeping simulated *timing* deterministic, not just values.
    let mut files = HashMap::new();
    let mut names: Vec<&String> = handles.keys().collect();
    names.sort();
    for name in names {
        files.insert(name.clone(), *ctx.rd(&handles[name]));
    }
    MakeOutcome { files, rebuilt }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmake::serial::make_serial;

    #[test]
    fn jade_make_matches_serial_make() {
        for mk in [
            Makefile::chain(6, 1e5),
            Makefile::wide(6, 1e5),
            Makefile::project(5, 1e5, 2e5),
            Makefile::random_dag(25, 11),
        ] {
            let want = make_serial(&mk);
            let (got, _) = jade_core::serial::run(|ctx| make_jade(ctx, &mk));
            assert_eq!(got.files, want.files);
            let want_set: HashSet<String> = want.rebuilt.iter().cloned().collect();
            assert_eq!(got.rebuilt, want_set);
        }
    }

    #[test]
    fn incremental_build_creates_fewer_tasks() {
        let mut mk = Makefile::project(6, 1e5, 2e5);
        let (_, full_stats) = jade_core::serial::run(|ctx| make_jade(ctx, &mk));
        // Build everything, then touch one source: only its object,
        // the library and the apps rebuild.
        let out = make_serial(&mk);
        for (name, st) in &out.files {
            mk.files.insert(name.clone(), *st);
        }
        mk.files.get_mut("m0.c").unwrap().version += 10;
        let (inc, inc_stats) = jade_core::serial::run(|ctx| make_jade(ctx, &mk));
        assert_eq!(
            inc.rebuilt,
            HashSet::from([
                "m0.o".to_string(),
                "lib.a".to_string(),
                "app1".to_string(),
                "app2".to_string()
            ])
        );
        assert!(inc_stats.tasks_created < full_stats.tasks_created);
    }

    #[test]
    fn wide_makefile_has_no_cross_edges() {
        // Independent compilations must not depend on each other.
        let mk = Makefile::wide(5, 1e5);
        let (_, trace) = jade_core::serial::run_traced(|ctx| make_jade(ctx, &mk));
        for &t in trace.tasks() {
            if t.is_root() {
                continue;
            }
            // Each task's only predecessors can be the root.
            assert!(
                trace.predecessors(t).iter().all(|p| p.is_root()),
                "unexpected dependence for {}",
                trace.label(t)
            );
        }
    }

    #[test]
    fn chain_makefile_serializes() {
        let mk = Makefile::chain(5, 1e5);
        let (_, trace) = jade_core::serial::run_traced(|ctx| make_jade(ctx, &mk));
        assert_eq!(trace.critical_path_len(), 5, "chain must form one long path");
    }
}
