//! The portable task-body IR: a declarative program of kernel calls
//! over a task's declared objects.
//!
//! Rust closures cannot cross a process boundary, but most of the
//! paper's task bodies are *kernel-shaped*: read some declared
//! objects, run a pure computation, write some declared objects. A
//! [`TaskBodyIr`] captures exactly that shape as data — a short
//! sequence of [`IrStep`]s naming kernels from a
//! [`KernelRegistry`](crate::kernels::KernelRegistry) — so a remote
//! worker can execute the body against *replicas* of the objects and
//! send back only the written values. Sources index the task's
//! declaration list (the [`Declaration`](crate::spec::Declaration)s
//! its [`SpecBuilder`](crate::spec::SpecBuilder) recorded and the
//! engine checks), which is what ties the IR to the
//! access-specification discipline: a body can only touch what it
//! declared.
//!
//! Bodies that do not lower (data-dependent control flow, foreign
//! types) simply attach no IR and keep their closure; the runtime
//! falls back to local execution for them.
//!
//! The value domain is `f64` buffers: every shippable object lowers to
//! a flat `Vec<f64>` (see [`crate::store`]'s lowering registry).
//! Integers that must survive the trip (versions, sizes, indices) are
//! exact as long as they stay below 2⁵³, which every counter here does.

use jade_transport::{DecodeResult, PortDecoder, PortEncoder, Portable};

use crate::kernels::KernelRegistry;

/// One argument source for a kernel call. Sources are concatenated in
/// order into the kernel's flat `&[f64]` argument slice.
#[derive(Debug, Clone, PartialEq)]
pub enum IrSrc {
    /// The lowered value of declaration `decl` of the task's spec.
    Obj(u32),
    /// Literal values baked in at task-creation time (the main task
    /// resolves them while generating the spec — pattern indices,
    /// block shapes, timestep sizes).
    Lit(Vec<f64>),
    /// The full output of an earlier step stored to temporary `tmp`.
    Tmp(u32),
    /// A slice of a temporary: `len` values starting at `start`. This
    /// plus the `id` kernel scatters one kernel output into several
    /// destination objects.
    TmpSlice {
        /// Temporary index.
        tmp: u32,
        /// First element of the slice.
        start: u32,
        /// Slice length.
        len: u32,
    },
}

/// Where a kernel call's result goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrDst {
    /// Replace the lowered value of declaration `decl`; the object is
    /// written back to the coordinator when the task completes.
    Obj(u32),
    /// Store into temporary `tmp` for later steps (never shipped).
    Tmp(u32),
}

/// One kernel call.
#[derive(Debug, Clone, PartialEq)]
pub struct IrStep {
    /// Kernel name, resolved against the executing registry.
    pub kernel: String,
    /// Argument sources, concatenated in order.
    pub args: Vec<IrSrc>,
    /// Result destination.
    pub out: IrDst,
}

/// A task body as data: an ordered program of kernel calls.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskBodyIr {
    /// The steps, executed in order.
    pub steps: Vec<IrStep>,
}

impl TaskBodyIr {
    /// An empty program (builder entry point).
    pub fn new() -> Self {
        TaskBodyIr::default()
    }

    /// Append a step, builder-style.
    pub fn step(mut self, kernel: &str, args: Vec<IrSrc>, out: IrDst) -> Self {
        self.steps.push(IrStep { kernel: kernel.to_string(), args, out });
        self
    }

    /// Declaration indices whose values the program *reads* (appear as
    /// `Obj` sources, or as `Obj` destinations that an earlier step
    /// has not fully defined). Sorted, deduplicated.
    pub fn read_decls(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut defined: Vec<u32> = Vec::new();
        for s in &self.steps {
            for a in &s.args {
                if let IrSrc::Obj(d) = a {
                    if !defined.contains(d) {
                        out.push(*d);
                    }
                }
            }
            if let IrDst::Obj(d) = s.out {
                defined.push(d);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Declaration indices the program writes. Sorted, deduplicated.
    pub fn written_decls(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .steps
            .iter()
            .filter_map(|s| match s.out {
                IrDst::Obj(d) => Some(d),
                IrDst::Tmp(_) => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every kernel name the program calls.
    pub fn kernel_names(&self) -> impl Iterator<Item = &str> {
        self.steps.iter().map(|s| s.kernel.as_str())
    }
}

/// Execute an IR program. `inputs` has one slot per declaration the
/// program may name: `inputs[d]` holds the lowered value of
/// declaration `d` for every declaration in
/// [`read_decls`](TaskBodyIr::read_decls) (others may be `None`). A
/// program of `n` steps may use temporaries `0..n`.
/// Returns the final value of every written declaration, sorted by
/// declaration index. Failures (unknown kernel, missing input, bad
/// slice, destination out of range) are deterministic and reported as
/// strings — the caller decides whether to fall back to a closure.
pub fn run_ir(
    ir: &TaskBodyIr,
    inputs: &[Option<Vec<f64>>],
    registry: &KernelRegistry,
) -> Result<Vec<(u32, Vec<f64>)>, String> {
    let mut objs: Vec<Option<Vec<f64>>> = inputs.to_vec();
    let mut tmps: Vec<Option<Vec<f64>>> = vec![None; ir.steps.len()];
    let mut args: Vec<f64> = Vec::new();
    for (i, step) in ir.steps.iter().enumerate() {
        let kernel = registry
            .lookup(&step.kernel)
            .ok_or_else(|| format!("step {i}: no kernel named '{}'", step.kernel))?;
        args.clear();
        for src in &step.args {
            match src {
                IrSrc::Obj(d) => {
                    let v = objs
                        .get(*d as usize)
                        .and_then(|o| o.as_ref())
                        .ok_or_else(|| format!("step {i}: input for decl {d} missing"))?;
                    args.extend_from_slice(v);
                }
                IrSrc::Lit(vals) => args.extend_from_slice(vals),
                IrSrc::Tmp(t) => {
                    let v = tmps
                        .get(*t as usize)
                        .and_then(|o| o.as_ref())
                        .ok_or_else(|| format!("step {i}: tmp {t} undefined"))?;
                    args.extend_from_slice(v);
                }
                IrSrc::TmpSlice { tmp, start, len } => {
                    let v = tmps
                        .get(*tmp as usize)
                        .and_then(|o| o.as_ref())
                        .ok_or_else(|| format!("step {i}: tmp {tmp} undefined"))?;
                    let (s, l) = (*start as usize, *len as usize);
                    let slice = v
                        .get(s..s + l)
                        .ok_or_else(|| format!("step {i}: slice {s}..{} out of range", s + l))?;
                    args.extend_from_slice(slice);
                }
            }
        }
        // Destinations are peer-supplied indices when the program
        // arrived in a `TaskShip`: bound them before touching memory.
        let slot = match step.out {
            IrDst::Obj(d) => objs
                .get_mut(d as usize)
                .ok_or_else(|| format!("step {i}: output decl {d} out of range"))?,
            IrDst::Tmp(t) => tmps
                .get_mut(t as usize)
                .ok_or_else(|| format!("step {i}: output tmp {t} out of range"))?,
        };
        *slot = Some(kernel(&args));
    }
    Ok(ir
        .written_decls()
        .into_iter()
        .filter_map(|d| objs.get(d as usize).and_then(|o| o.clone()).map(|v| (d, v)))
        .collect())
}

// Wire format: the IR ships inside `TaskShip` frames, so it converts
// through every machine's `DataLayout` like any other message.

impl Portable for IrSrc {
    fn encode(&self, enc: &mut PortEncoder) {
        match self {
            IrSrc::Obj(d) => {
                enc.put_u8(0);
                enc.put_u32(*d);
            }
            IrSrc::Lit(vals) => {
                enc.put_u8(1);
                enc.put_f64_slice(vals);
            }
            IrSrc::Tmp(t) => {
                enc.put_u8(2);
                enc.put_u32(*t);
            }
            IrSrc::TmpSlice { tmp, start, len } => {
                enc.put_u8(3);
                enc.put_u32(*tmp);
                enc.put_u32(*start);
                enc.put_u32(*len);
            }
        }
    }
    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        Ok(match dec.get_u8()? {
            0 => IrSrc::Obj(dec.get_u32()?),
            1 => IrSrc::Lit(dec.get_f64_slice()?),
            2 => IrSrc::Tmp(dec.get_u32()?),
            3 => IrSrc::TmpSlice {
                tmp: dec.get_u32()?,
                start: dec.get_u32()?,
                len: dec.get_u32()?,
            },
            tag => return Err(jade_transport::DecodeError::UnknownTag { tag }),
        })
    }
    fn size_hint(&self) -> usize {
        match self {
            IrSrc::Lit(v) => 8 + v.len() * 8,
            _ => 16,
        }
    }
}

impl Portable for IrDst {
    fn encode(&self, enc: &mut PortEncoder) {
        match self {
            IrDst::Obj(d) => {
                enc.put_u8(0);
                enc.put_u32(*d);
            }
            IrDst::Tmp(t) => {
                enc.put_u8(1);
                enc.put_u32(*t);
            }
        }
    }
    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        Ok(match dec.get_u8()? {
            0 => IrDst::Obj(dec.get_u32()?),
            1 => IrDst::Tmp(dec.get_u32()?),
            tag => return Err(jade_transport::DecodeError::UnknownTag { tag }),
        })
    }
    fn size_hint(&self) -> usize {
        8
    }
}

impl Portable for IrStep {
    fn encode(&self, enc: &mut PortEncoder) {
        enc.put_str(&self.kernel);
        self.args.encode(enc);
        self.out.encode(enc);
    }
    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        Ok(IrStep {
            kernel: dec.get_str()?,
            args: Vec::<IrSrc>::decode(dec)?,
            out: IrDst::decode(dec)?,
        })
    }
    fn size_hint(&self) -> usize {
        16 + self.kernel.len() + self.args.iter().map(Portable::size_hint).sum::<usize>()
    }
}

impl Portable for TaskBodyIr {
    fn encode(&self, enc: &mut PortEncoder) {
        self.steps.encode(enc);
    }
    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        Ok(TaskBodyIr { steps: Vec::<IrStep>::decode(dec)? })
    }
    fn size_hint(&self) -> usize {
        8 + self.steps.iter().map(Portable::size_hint).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_transport::{roundtrip_same, DataLayout};

    fn reg() -> KernelRegistry {
        KernelRegistry::builtin()
    }

    #[test]
    fn single_step_updates_object_in_place() {
        // decl 0: a vector doubled in place.
        let ir = TaskBodyIr::new().step("scale2", vec![IrSrc::Obj(0)], IrDst::Obj(0));
        let outs = run_ir(&ir, &[Some(vec![1.0, -2.5])], &reg()).unwrap();
        assert_eq!(outs, vec![(0, vec![2.0, -5.0])]);
        assert_eq!(ir.read_decls(), vec![0]);
        assert_eq!(ir.written_decls(), vec![0]);
    }

    #[test]
    fn tmp_slices_scatter_one_output_into_two_objects() {
        // One kernel produces [2x0, 2x1]; id-scatter sends element 0
        // to decl 1 and element 1 to decl 2.
        let ir = TaskBodyIr::new()
            .step("scale2", vec![IrSrc::Obj(0)], IrDst::Tmp(0))
            .step("id", vec![IrSrc::TmpSlice { tmp: 0, start: 0, len: 1 }], IrDst::Obj(1))
            .step("id", vec![IrSrc::TmpSlice { tmp: 0, start: 1, len: 1 }], IrDst::Obj(2));
        let outs = run_ir(&ir, &[Some(vec![3.0, 4.0]), None, None], &reg()).unwrap();
        assert_eq!(outs, vec![(1, vec![6.0]), (2, vec![8.0])]);
        assert_eq!(ir.read_decls(), vec![0], "written-only decls are not read");
    }

    #[test]
    fn literals_and_chaining() {
        let ir = TaskBodyIr::new()
            .step("sum", vec![IrSrc::Lit(vec![1.0, 2.0]), IrSrc::Obj(0)], IrDst::Tmp(0))
            .step("sum", vec![IrSrc::Tmp(0), IrSrc::Tmp(0)], IrDst::Obj(0));
        let outs = run_ir(&ir, &[Some(vec![4.0])], &reg()).unwrap();
        assert_eq!(outs, vec![(0, vec![14.0])]);
    }

    #[test]
    fn failures_are_deterministic_strings() {
        let missing = TaskBodyIr::new().step("nope", vec![], IrDst::Tmp(0));
        assert!(run_ir(&missing, &[], &reg()).unwrap_err().contains("nope"));
        let no_input = TaskBodyIr::new().step("sum", vec![IrSrc::Obj(0)], IrDst::Obj(0));
        assert!(run_ir(&no_input, &[None], &reg()).unwrap_err().contains("decl 0"));
        let bad_slice = TaskBodyIr::new()
            .step("id", vec![IrSrc::Lit(vec![1.0])], IrDst::Tmp(0))
            .step("id", vec![IrSrc::TmpSlice { tmp: 0, start: 0, len: 5 }], IrDst::Obj(0));
        assert!(run_ir(&bad_slice, &[None], &reg()).unwrap_err().contains("out of range"));
    }

    #[test]
    fn hostile_destination_indices_are_rejected_without_allocating() {
        // A `u32::MAX` destination used to resize the slot vector to
        // 4G entries (~100 GB); a completed call proves it no longer
        // does. One slot of each kind exists here, so index 1 is the
        // first one out of range.
        for (out, needle) in [
            (IrDst::Obj(u32::MAX), "out of range"),
            (IrDst::Obj(1), "decl 1"),
            (IrDst::Tmp(u32::MAX), "out of range"),
            (IrDst::Tmp(1), "tmp 1"),
        ] {
            let ir = TaskBodyIr::new().step("id", vec![IrSrc::Lit(vec![1.0])], out);
            assert!(run_ir(&ir, &[None], &reg()).unwrap_err().contains(needle), "{out:?}");
        }
    }

    #[test]
    fn ir_round_trips_through_every_layout() {
        let ir = TaskBodyIr::new()
            .step(
                "cholesky_col",
                vec![
                    IrSrc::Lit(vec![0.5, -3.0]),
                    IrSrc::Obj(2),
                    IrSrc::Tmp(1),
                    IrSrc::TmpSlice { tmp: 0, start: 3, len: 9 },
                ],
                IrDst::Tmp(4),
            )
            .step("id", vec![IrSrc::Tmp(4)], IrDst::Obj(0));
        for l in DataLayout::all_presets() {
            assert_eq!(roundtrip_same(&ir, l), ir);
        }
    }
}
