//! Compiled inference plans: ahead-of-time execution of a traced eval
//! forward pass, one plan for every batch size.
//!
//! A [`CompiledPlan`] is built from two traces of a model's eval-mode
//! forward, one at batch 1 and one at batch 2, by lowering the tape into a
//! topologically ordered list of kernel calls over a single reusable buffer
//! [`PlanArena`]:
//!
//! * **Batch classification** — every dimension of every node is compared
//!   across the two traces. Equal is *fixed*; twice its batch-1 value is
//!   *proportional*, so at batch `b` it is `b ×` that value. Any other
//!   dimension, a shape with two proportional axes, a `Narrow`, `PadAxis`
//!   or `Concat` along the proportional axis, and a payload (permute axes,
//!   offsets, scalars, constant tensors) that differs between the traces
//!   each fail compilation with a typed [`PlanError`]. Execution derives
//!   `b` from its inputs and scales shapes and arena offsets as it goes.
//! * **Leaf classification** — tape leaves are either parameters (identified
//!   by their [`ParamId`]), *variable inputs* (byte-matched, in push order,
//!   against the prelude tensors the model derives from the raw input), or
//!   *constants* (byte-identical across both traces, snapshotted into the
//!   plan). Anything else fails compilation with a typed [`PlanError`] —
//!   the caller falls back to the tape path, so a failed compile can never
//!   produce wrong bits.
//! * **Fusion** — chosen at plan time by a pattern matcher that proves
//!   safety: `Reshape` becomes a zero-copy alias, a single-consumer
//!   `Linear → Gelu` pair becomes the fused `LinearGelu` kernel sequence,
//!   and a single-consumer `LinearGelu → Linear` pair becomes a whole
//!   MLP-block super-step. Every fusion replays exactly the kernel calls the
//!   tape ops perform, so outputs stay bit-identical.
//! * **Liveness → offsets** — each step output gets an inclusive liveness
//!   interval `[producer, last consumer]`. One first-fit scan over
//!   per-sample lengths assigns 64-byte-aligned offsets to the proportional
//!   buffers, a second one to the fixed ones. A proportional buffer at
//!   per-sample offset `o` lives at `b·o`, and the fixed buffers sit after
//!   `b·S`, so buffers disjoint at batch 1 are disjoint at every batch and
//!   the arena takes `b·S + F` lanes. Because the intervals are inclusive,
//!   a step's output region is always disjoint from its input regions.
//!
//! [`CompiledPlan::profile`] times each step of the same execute loop (the
//! loop is generic over a per-step observer; `execute` passes a no-op), so
//! a plan dump can show where a plan's time goes.
//!
//! The bit-identity contract: executing a plan at batch `b` calls the
//! *same* `msd_tensor` kernel entry points (`ops::linear_into`,
//! `ops::kernels::ew`, `ops::kernels::norm`, ...) on the same shapes and in
//! the same order as the tape ops it replaces at batch `b`, so results are
//! bit-identical to `Graph`-based eval for every SIMD tier (each kernel
//! dispatches on the executing thread's `kernels::tier()`).

use std::fmt;
use std::ops::Deref;

use msd_tensor::ops::kernels::{ew, norm, quant, reduce as kred};
use msd_tensor::ops::{
    concat_into, linear_into, matmul_nn_into, narrow_into, pad_axis_into, permute_into,
    sum_axis_into,
};
use msd_tensor::{QuantView, Tensor};

use crate::graph::{Graph, Op};
use crate::{ParamId, Var};

/// Arena alignment in `f32` lanes (64 bytes).
const ALIGN: usize = 16;

/// Highest tensor rank a plan accepts: execute-time shapes live in
/// fixed-size stack arrays, so an execute allocates nothing for them.
const MAX_RANK: usize = 8;

/// `Concat` sources gathered on the stack before falling back to the heap.
const INLINE_PARTS: usize = 8;

/// Read access to parameter values by id, implemented by `msd_nn`'s
/// `ParamStore`. Keeps this crate free of a dependency on the store type.
pub trait ParamSource {
    /// The current value of parameter `id`.
    fn param_value(&self, id: ParamId) -> &Tensor;

    /// The int8-quantized form of parameter `id`, when the source was loaded
    /// from an int8-tier artifact. Plans lowered with
    /// [`CompiledPlan::lower_int8`] read weights through this instead of
    /// [`param_value`](Self::param_value). The default (`None`) keeps plain
    /// f32 sources working unchanged.
    fn quant_param(&self, _id: ParamId) -> Option<QuantView<'_>> {
        None
    }
}

/// Why a trace could not be compiled into a plan. A compile failure is
/// always safe: callers fall back to tape evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The two traces disagreed structurally (op kinds, payloads, parents,
    /// or constants) — the forward is not trace-deterministic, or a payload
    /// depends on the batch.
    TraceMismatch(String),
    /// The tape contains an op the plan executor does not support (losses,
    /// train-only ops), or a tensor of rank above 8.
    UnsupportedOp(&'static str),
    /// A non-parameter leaf could not be matched against the model's
    /// declared plan prelude and is not constant across the traces.
    PreludeMismatch(String),
    /// The compiled plan's output did not byte-match tape eval on a probe
    /// input (caught at compile time, before the plan is ever used).
    Verification(String),
    /// A shape does not extend from batches 1 and 2 to every batch: a
    /// dimension neither fixed nor proportional, two proportional axes in
    /// one shape, a `Narrow`/`PadAxis`/`Concat` along the proportional
    /// axis, or no variable input that carries the batch.
    NotBatchAffine(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::TraceMismatch(m) => write!(f, "plan trace mismatch: {m}"),
            PlanError::UnsupportedOp(op) => write!(f, "plan-unsupported op: {op}"),
            PlanError::PreludeMismatch(m) => write!(f, "plan prelude mismatch: {m}"),
            PlanError::Verification(m) => write!(f, "plan verification failed: {m}"),
            PlanError::NotBatchAffine(m) => write!(f, "plan not batch-affine: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Source of an operand read by a plan step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Src {
    /// Output of an earlier step.
    Step(usize),
    /// Variable input: index into the prelude tensors passed to
    /// [`CompiledPlan::execute`].
    Input(usize),
    /// Model parameter, read from the [`ParamSource`] at execute time.
    Param(ParamId),
    /// Constant snapshotted at compile time.
    Const(usize),
}

/// A shape as a function of the batch `b`: `dims` is the shape at batch 1,
/// and at batch `b` the proportional axis, if there is one, holds
/// `b · dims[axis]`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PolyShape {
    dims: Vec<usize>,
    axis: Option<usize>,
}

impl PolyShape {
    /// Classifies a node's shapes in the batch-1 and batch-2 traces: a
    /// dimension equal in both is fixed, one doubled is proportional, and
    /// a shape has at most one proportional axis.
    fn classify(at1: &[usize], at2: &[usize]) -> Result<PolyShape, String> {
        if at1.len() != at2.len() {
            return Err(format!("rank differs: {at1:?} at batch 1, {at2:?} at batch 2"));
        }
        let mut axis = None;
        for (i, (&x, &y)) in at1.iter().zip(at2).enumerate() {
            if x == y {
                continue;
            }
            if y != 2 * x {
                return Err(format!(
                    "axis {i} is {x} at batch 1 and {y} at batch 2, neither fixed nor proportional"
                ));
            }
            if axis.replace(i).is_some() {
                return Err(format!("two proportional axes: {at1:?} at batch 1, {at2:?} at batch 2"));
            }
        }
        Ok(PolyShape { dims: at1.to_vec(), axis })
    }

    /// Elements at batch 1: per sample, for a proportional shape.
    fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// The shape at batch `b`.
    fn at(&self, b: usize) -> Dims {
        let mut d = Dims::of(&self.dims);
        if let Some(a) = self.axis {
            d.d[a] *= b;
        }
        d
    }
}

/// `[b, 7, 96]`, `[7b, 16]`: the proportional axis shows its batch-1
/// extent times `b`.
impl fmt::Display for PolyShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match (Some(i) == self.axis, d) {
                (true, 1) => f.write_str("b")?,
                (true, d) => write!(f, "{d}b")?,
                (false, d) => write!(f, "{d}")?,
            }
        }
        f.write_str("]")
    }
}

/// A shape at the executing batch, held on the stack.
#[derive(Clone, Copy)]
struct Dims {
    n: usize,
    d: [usize; MAX_RANK],
}

impl Dims {
    const EMPTY: Dims = Dims { n: 0, d: [0; MAX_RANK] };

    fn of(shape: &[usize]) -> Dims {
        let mut d = [0; MAX_RANK];
        d[..shape.len()].copy_from_slice(shape);
        Dims { n: shape.len(), d }
    }
}

impl Deref for Dims {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.d[..self.n]
    }
}

impl AsRef<[usize]> for Dims {
    fn as_ref(&self) -> &[usize] {
        self
    }
}

/// A buffer in the plan arena. A per-sample buffer takes `b · len` lanes at
/// `b · off`; a fixed one takes `len` lanes at `b · S + off`, past every
/// per-sample buffer (`S` is the plan's per-sample lane count).
#[derive(Clone, Copy, Debug)]
struct Region {
    off: usize,
    len: usize,
    per_sample: bool,
}

impl Region {
    /// `(offset, length)` in lanes at batch `b`.
    fn at(self, b: usize, sample_lanes: usize) -> (usize, usize) {
        if self.per_sample {
            (b * self.off, b * self.len)
        } else {
            (b * sample_lanes + self.off, self.len)
        }
    }
}

/// Where a step's output bytes live at execute time.
#[derive(Clone, Copy, Debug)]
enum Root {
    /// A region of the plan arena.
    Arena(Region),
    /// Zero-copy alias of a variable input (reshape of an input).
    Input(usize),
    /// Zero-copy alias of a parameter.
    Param(ParamId),
    /// Zero-copy alias of a snapshotted constant.
    Const(usize),
}

/// The kernel a step runs. Payloads carry everything needed to replay the
/// exact tape computation; operand shapes come from the step's sources.
#[derive(Clone, Debug)]
enum PKind {
    Binary(ew::Bin),
    Neg,
    Sqrt,
    Abs,
    Recip,
    Tanh,
    Scale(f32),
    AddScalar(f32),
    Square,
    Relu,
    Gelu,
    Linear,
    /// Fused `gelu(x · W + b)`; scratch 0 holds the pre-activation.
    LinearGelu,
    /// Whole MLP block `gelu(x · W1 + b1) · W2 + b2`; scratch 0/1 hold the
    /// pre-activation and hidden activation (`rows × hidden`). `w2_at` is
    /// the index in `srcs` where the second linear's weight sits.
    Mlp { w2_at: usize, hidden: usize },
    Matmul,
    Permute(Vec<usize>),
    /// Zero-copy alias; never executed.
    Reshape,
    PadAxis { axis: usize, before: usize, after: usize },
    Narrow { axis: usize, start: usize, len: usize },
    Concat { axis: usize },
    SumAll,
    MeanAll,
    SumAxis(usize),
    MeanAxis(usize),
    BroadcastLast(usize),
    MulBcastLast,
    AddBcastLast,
    LayerNorm { eps: f32 },
    MaxPoolLast { k: usize },
    SoftmaxLast,
}

impl PKind {
    fn name(&self) -> &'static str {
        match self {
            PKind::Binary(ew::Bin::Add) => "Add",
            PKind::Binary(ew::Bin::Sub) => "Sub",
            PKind::Binary(ew::Bin::Mul) => "Mul",
            PKind::Binary(ew::Bin::Div) => "Div",
            PKind::Neg => "Neg",
            PKind::Sqrt => "Sqrt",
            PKind::Abs => "Abs",
            PKind::Recip => "Recip",
            PKind::Tanh => "Tanh",
            PKind::Scale(_) => "Scale",
            PKind::AddScalar(_) => "AddScalar",
            PKind::Square => "Square",
            PKind::Relu => "Relu",
            PKind::Gelu => "Gelu",
            PKind::Linear => "Linear",
            PKind::LinearGelu => "LinearGelu",
            PKind::Mlp { .. } => "MlpBlock",
            PKind::Matmul => "Matmul",
            PKind::Permute(_) => "Permute",
            PKind::Reshape => "Reshape",
            PKind::PadAxis { .. } => "PadAxis",
            PKind::Narrow { .. } => "Narrow",
            PKind::Concat { .. } => "Concat",
            PKind::SumAll => "SumAll",
            PKind::MeanAll => "MeanAll",
            PKind::SumAxis(_) => "SumAxis",
            PKind::MeanAxis(_) => "MeanAxis",
            PKind::BroadcastLast(_) => "BroadcastLast",
            PKind::MulBcastLast => "MulBcastLast",
            PKind::AddBcastLast => "AddBcastLast",
            PKind::LayerNorm { .. } => "LayerNorm",
            PKind::MaxPoolLast { .. } => "MaxPoolLast",
            PKind::SoftmaxLast => "SoftmaxLast",
        }
    }
}

#[derive(Clone, Debug)]
struct Step {
    kind: PKind,
    srcs: Vec<Src>,
    /// Output shape.
    shape: PolyShape,
    /// Filled in by the allocator.
    root: Root,
    /// Step-local scratch regions, in slot order, filled in by the allocator.
    scratch: Vec<Region>,
    /// Set by [`CompiledPlan::lower_int8`]: run this step's matmuls on the
    /// int8 kernels, reading weights via [`ParamSource::quant_param`].
    int8: bool,
}

impl Step {
    fn new(kind: PKind, srcs: Vec<Src>, shape: PolyShape) -> Step {
        Step {
            kind,
            srcs,
            shape,
            root: Root::Arena(Region { off: 0, len: 0, per_sample: false }),
            scratch: Vec::new(),
            int8: false,
        }
    }
}

/// One executed step's timing, from [`CompiledPlan::profile`].
#[derive(Clone, Debug)]
pub struct StepProfile {
    /// Index of the step in [`CompiledPlan::describe`]'s listing.
    pub step: usize,
    /// Step kind, as `describe` names it (`Linear`, `MlpBlock`, `Permute`, ...).
    pub kind: &'static str,
    /// Output shape at the profiled batch.
    pub shape: Vec<usize>,
    /// Median wall time of the step, in microseconds.
    pub us: f64,
    /// Floating-point operations of the step's matrix products (2 per
    /// multiply-add), for `Linear`, `LinearGelu` and `MlpBlock`; 0 for
    /// every other kind.
    pub flops: usize,
}

/// A compiled inference plan, valid at every batch size. See the module
/// docs.
pub struct CompiledPlan {
    steps: Vec<Step>,
    consts: Vec<Tensor>,
    inputs: Vec<PolyShape>,
    /// Arena lanes per sample (`S`) and fixed lanes (`F`): an execute at
    /// batch `b` uses `b·S + F`.
    sample_lanes: usize,
    fixed_lanes: usize,
    out_src: Src,
    out_shape: PolyShape,
    fusions: Vec<String>,
}

/// Reusable execution buffer for [`CompiledPlan::execute`]. One arena can be
/// shared by plans and batches of different sizes; it grows to the largest
/// it has executed, and every step fully overwrites its region, so
/// recycling across them can never leak stale bytes into an output.
#[derive(Default)]
pub struct PlanArena {
    buf: Vec<f32>,
}

impl PlanArena {
    /// An empty arena; the first execute sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current capacity in `f32` lanes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the arena has not been sized yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl CompiledPlan {
    /// Compiles two traces of the same forward into a plan for every batch.
    ///
    /// `ga`/`gb` are eval graphs holding the tapes of the forward applied to
    /// probe inputs at batch 1 and batch 2; `out_a`/`out_b` are the
    /// prediction vars; `prelude_a`/`prelude_b` are the model's declared
    /// input-derived leaf tensors (see `Model::plan_prelude`) for each probe.
    /// Non-parameter leaves that differ between traces must byte-match the
    /// prelude tensors in push order; leaves identical across traces are
    /// snapshotted as constants. The batch rules are in the module docs.
    pub fn from_traces(
        ga: &Graph,
        out_a: Var,
        gb: &Graph,
        out_b: Var,
        prelude_a: &[Tensor],
        prelude_b: &[Tensor],
    ) -> Result<CompiledPlan, PlanError> {
        let nodes_a = ga.nodes.borrow();
        let nodes_b = gb.nodes.borrow();
        if nodes_a.len() != nodes_b.len() {
            return Err(PlanError::TraceMismatch(format!(
                "node count {} vs {}",
                nodes_a.len(),
                nodes_b.len()
            )));
        }
        if prelude_a.len() != prelude_b.len() {
            return Err(PlanError::PreludeMismatch(format!(
                "prelude length {} vs {}",
                prelude_a.len(),
                prelude_b.len()
            )));
        }

        let mut consts: Vec<Tensor> = Vec::new();
        let mut inputs: Vec<PolyShape> = Vec::new();
        let mut shapes: Vec<PolyShape> = Vec::with_capacity(nodes_a.len());
        let mut lowered: Vec<Src> = Vec::with_capacity(nodes_a.len());
        let mut steps: Vec<Step> = Vec::new();
        let mut input_cursor = 0usize;

        for (idx, (na, nb)) in nodes_a.iter().zip(nodes_b.iter()).enumerate() {
            let name = na.op.name();
            same(idx, "op", name == nb.op.name())?;
            same(idx, "parent set", na.parents == nb.parents)?;
            if na.value.ndim() > MAX_RANK {
                return Err(PlanError::UnsupportedOp("tensor rank above 8"));
            }
            let shape = PolyShape::classify(na.value.shape(), nb.value.shape())
                .map_err(|m| PlanError::NotBatchAffine(format!("node {idx} ({name}): {m}")))?;
            let parent_axis = |k: usize| shapes[na.parents[k].0 as usize].axis;

            // Leaves: classify as parameter / constant / variable input.
            if matches!(na.op, Op::Leaf) {
                if let Some(id) = na.param {
                    same(idx, "parameter id", nb.param == Some(id))?;
                    lowered.push(Src::Param(id));
                } else if na.value == nb.value {
                    consts.push(na.value.clone());
                    lowered.push(Src::Const(consts.len() - 1));
                } else {
                    // Variable leaf: must byte-match the next prelude tensor
                    // on both probes. Matching is on data only — models may
                    // reshape the input before pushing it as a leaf, and the
                    // plan records the on-tape shape for execution.
                    let k = input_cursor;
                    if k >= prelude_a.len()
                        || na.value.data() != prelude_a[k].data()
                        || nb.value.data() != prelude_b[k].data()
                    {
                        return Err(PlanError::PreludeMismatch(format!(
                            "variable leaf {idx} does not match prelude tensor {k}"
                        )));
                    }
                    input_cursor += 1;
                    inputs.push(shape.clone());
                    lowered.push(Src::Input(k));
                }
                shapes.push(shape);
                continue;
            }

            // Interior node: lower the op.
            let mut srcs: Vec<Src> =
                na.parents.iter().map(|p| lowered[p.0 as usize]).collect();
            let along_batch = |axis: usize| {
                PlanError::NotBatchAffine(format!("node {idx}: {name} along the batch axis {axis}"))
            };

            let kind = match (&na.op, &nb.op) {
                (Op::Add, _) => PKind::Binary(ew::Bin::Add),
                (Op::Sub, _) => PKind::Binary(ew::Bin::Sub),
                (Op::Mul, _) => PKind::Binary(ew::Bin::Mul),
                (Op::Div, _) => PKind::Binary(ew::Bin::Div),
                (Op::Neg, _) => PKind::Neg,
                (Op::Sqrt, _) => PKind::Sqrt,
                (Op::Abs, _) => PKind::Abs,
                (Op::Recip, _) => PKind::Recip,
                (Op::Tanh, _) => PKind::Tanh,
                (Op::Square, _) => PKind::Square,
                (Op::Relu, _) => PKind::Relu,
                (Op::Gelu, _) => PKind::Gelu,
                (Op::Scale(sa), Op::Scale(sb)) => {
                    same(idx, "Scale", sa.to_bits() == sb.to_bits())?;
                    PKind::Scale(*sa)
                }
                (Op::AddScalar(sa), Op::AddScalar(sb)) => {
                    same(idx, "AddScalar", sa.to_bits() == sb.to_bits())?;
                    PKind::AddScalar(*sa)
                }
                (Op::MulConst(ca), Op::MulConst(cb)) | (Op::AddConst(ca), Op::AddConst(cb)) => {
                    same(idx, "constant operand", ca == cb)?;
                    if ca.ndim() > MAX_RANK {
                        return Err(PlanError::UnsupportedOp("tensor rank above 8"));
                    }
                    consts.push(ca.clone());
                    srcs.push(Src::Const(consts.len() - 1));
                    PKind::Binary(match na.op {
                        Op::MulConst(_) => ew::Bin::Mul,
                        _ => ew::Bin::Add,
                    })
                }
                (Op::Linear, _) => PKind::Linear,
                (Op::LinearGelu { .. }, _) => PKind::LinearGelu,
                (Op::Matmul { .. }, _) => PKind::Matmul,
                (Op::Permute(pa), Op::Permute(pb)) => {
                    same(idx, "Permute axes", pa == pb)?;
                    PKind::Permute(pa.clone())
                }
                (Op::Reshape, _) => PKind::Reshape,
                (
                    Op::PadAxis { axis, before, orig_len },
                    Op::PadAxis { axis: xb, before: bb, orig_len: ob },
                ) => {
                    same(idx, "PadAxis payload", (axis, before, orig_len) == (xb, bb, ob))?;
                    if parent_axis(0) == Some(*axis) {
                        return Err(along_batch(*axis));
                    }
                    PKind::PadAxis {
                        axis: *axis,
                        before: *before,
                        after: shape.dims[*axis] - orig_len - before,
                    }
                }
                (
                    Op::Narrow { axis, start, .. },
                    Op::Narrow { axis: xb, start: sb, .. },
                ) => {
                    same(idx, "Narrow payload", (axis, start) == (xb, sb))?;
                    if parent_axis(0) == Some(*axis) {
                        return Err(along_batch(*axis));
                    }
                    PKind::Narrow { axis: *axis, start: *start, len: shape.dims[*axis] }
                }
                (Op::Concat { axis, .. }, Op::Concat { axis: xb, .. }) => {
                    same(idx, "Concat axis", axis == xb)?;
                    if shape.axis == Some(*axis)
                        || (0..na.parents.len()).any(|k| parent_axis(k) == Some(*axis))
                    {
                        return Err(along_batch(*axis));
                    }
                    PKind::Concat { axis: *axis }
                }
                (Op::SumAll, _) => PKind::SumAll,
                (Op::MeanAll, _) => PKind::MeanAll,
                (Op::SumAxis(aa), Op::SumAxis(ab)) => {
                    same(idx, "SumAxis axis", aa == ab)?;
                    PKind::SumAxis(*aa)
                }
                (Op::MeanAxis(aa), Op::MeanAxis(ab)) => {
                    same(idx, "MeanAxis axis", aa == ab)?;
                    PKind::MeanAxis(*aa)
                }
                (Op::BroadcastLast(ea), Op::BroadcastLast(eb)) => {
                    same(idx, "BroadcastLast extent", ea == eb)?;
                    PKind::BroadcastLast(*ea)
                }
                (Op::MulBcastLast, _) => PKind::MulBcastLast,
                (Op::AddBcastLast, _) => PKind::AddBcastLast,
                (Op::LayerNorm { eps, .. }, Op::LayerNorm { eps: eb, .. }) => {
                    same(idx, "LayerNorm eps", eps.to_bits() == eb.to_bits())?;
                    PKind::LayerNorm { eps: *eps }
                }
                (Op::MaxPoolLast { .. }, _) => {
                    let window = |input: &Tensor, out: &Tensor| {
                        input.shape().last().unwrap() / out.shape().last().unwrap()
                    };
                    let k = window(&nodes_a[na.parents[0].0 as usize].value, &na.value);
                    let kb = window(&nodes_b[nb.parents[0].0 as usize].value, &nb.value);
                    same(idx, "MaxPoolLast window", k == kb)?;
                    PKind::MaxPoolLast { k }
                }
                (Op::SoftmaxLast, _) => PKind::SoftmaxLast,
                (Op::SoftmaxCe { .. }, _) => return Err(PlanError::UnsupportedOp("SoftmaxCe")),
                (Op::AcfHinge { .. }, _) => return Err(PlanError::UnsupportedOp("AcfHinge")),
                (Op::FusedLoss { .. }, _) => return Err(PlanError::UnsupportedOp("FusedLoss")),
                _ => {
                    return Err(PlanError::TraceMismatch(format!(
                        "node {idx}: op payloads of different kinds across the traces"
                    )))
                }
            };

            lowered.push(Src::Step(steps.len()));
            steps.push(Step::new(kind, srcs, shape.clone()));
            shapes.push(shape);
        }

        if input_cursor != prelude_a.len() {
            return Err(PlanError::PreludeMismatch(format!(
                "{} prelude tensors declared, {} consumed by the trace",
                prelude_a.len(),
                input_cursor
            )));
        }
        if !inputs.iter().any(|s| s.axis.is_some() && s.numel() > 0) {
            return Err(PlanError::NotBatchAffine(
                "no variable input carries the batch".into(),
            ));
        }

        let out_src = lowered[out_a.0 as usize];
        let _ = out_b;
        let out_shape = shapes[out_a.0 as usize].clone();
        drop(nodes_a);
        drop(nodes_b);

        let (steps, out_src, fusions) = fuse(steps, out_src);
        let mut plan = CompiledPlan {
            steps,
            consts,
            inputs,
            sample_lanes: 0,
            fixed_lanes: 0,
            out_src,
            out_shape,
            fusions,
        };
        plan.assign_buffers();
        Ok(plan)
    }

    /// Solves buffer liveness and assigns arena offsets (see module docs).
    fn assign_buffers(&mut self) {
        let n = self.steps.len();

        // Inclusive liveness interval per arena-owning step: birth is the
        // producing step, death the last step reading it (directly or via a
        // reshape alias chain).
        let mut death = vec![0usize; n];
        for (s_idx, step) in self.steps.iter().enumerate() {
            for src in &step.srcs {
                if let Src::Step(i) = *src {
                    if let Src::Step(o) = alias_owner(&self.steps, i) {
                        death[o] = death[o].max(s_idx);
                    }
                }
            }
        }
        // The plan output must survive every step.
        if let Src::Step(i) = self.out_src {
            if let Src::Step(o) = alias_owner(&self.steps, i) {
                death[o] = n;
            }
        }

        // Buffer requests in birth order: step outputs, then per-step
        // scratch (live only at the producing step). Lengths are at batch 1;
        // a scratch length is a product of its step's dimensions, so it is
        // proportional exactly when it doubles from batch 1 to batch 2.
        struct Req {
            birth: usize,
            death: usize,
            len: usize,
            per_sample: bool,
            step: usize,
            scratch: bool,
        }
        let mut reqs: Vec<Req> = Vec::new();
        for (i, step) in self.steps.iter().enumerate() {
            if matches!(step.kind, PKind::Reshape) {
                continue;
            }
            reqs.push(Req {
                birth: i,
                death: death[i],
                len: step.shape.numel().max(1),
                per_sample: step.shape.axis.is_some(),
                step: i,
                scratch: false,
            });
            let at1 = scratch_lens(&step.kind, &step.shape.at(1));
            let at2 = scratch_lens(&step.kind, &step.shape.at(2));
            for (l1, l2) in at1.into_iter().zip(at2) {
                debug_assert!(l2 == l1 || l2 == 2 * l1, "scratch {l1} -> {l2}");
                let (len, per_sample) = (l1.max(1), l2 != l1);
                reqs.push(Req { birth: i, death: i, len, per_sample, step: i, scratch: true });
            }
        }

        // First-fit offset assignment over inclusive intervals, one scan per
        // region: a previously placed buffer blocks a new one iff it is
        // still live at the new buffer's birth (placement runs in birth
        // order, so the converse overlap condition always holds).
        let mut placed: [Vec<(usize, usize, usize)>; 2] = [Vec::new(), Vec::new()]; // (off, aligned len, death)
        let mut lanes = [0usize; 2]; // [fixed, per-sample]
        for r in &reqs {
            let region = usize::from(r.per_sample);
            let len = r.len.div_ceil(ALIGN) * ALIGN;
            let mut active: Vec<(usize, usize)> = placed[region]
                .iter()
                .filter(|&&(_, _, d)| d >= r.birth)
                .map(|&(o, l, _)| (o, l))
                .collect();
            active.sort_unstable();
            let mut off = 0usize;
            for (o, l) in active {
                if off + len <= o {
                    break;
                }
                off = off.max(o + l);
            }
            placed[region].push((off, len, r.death));
            lanes[region] = lanes[region].max(off + len);
            let buf = Region { off, len: r.len, per_sample: r.per_sample };
            let step = &mut self.steps[r.step];
            if r.scratch {
                step.scratch.push(buf);
            } else {
                step.root = Root::Arena(buf);
            }
        }

        // Resolve alias roots now that owners have regions.
        for i in 0..self.steps.len() {
            if matches!(self.steps[i].kind, PKind::Reshape) {
                self.steps[i].root = match alias_owner(&self.steps, i) {
                    Src::Step(o) => self.steps[o].root,
                    Src::Input(k) => Root::Input(k),
                    Src::Param(id) => Root::Param(id),
                    Src::Const(c) => Root::Const(c),
                };
            }
        }
        [self.fixed_lanes, self.sample_lanes] = lanes;
    }

    /// Arena size in `f32` lanes at batch `batch`: `batch·S + F`.
    pub fn arena_len(&self, batch: usize) -> usize {
        batch * self.sample_lanes + self.fixed_lanes
    }

    /// Human-readable fusion decisions, for debugging and plan dumps.
    pub fn fusions(&self) -> &[String] {
        &self.fusions
    }

    /// Lowers matmul steps onto the int8 kernels wherever the parameter
    /// source carries quantized weights, returning how many steps were
    /// lowered. `msd_nn::Model::compile_plan` calls this for an int8-tier
    /// store, *after* compilation has traced and bit-verified at f32.
    ///
    /// A step is lowered only when every weight it multiplies by is a
    /// plan parameter with an int8 form of the exact on-tape shape and
    /// within the exact-accumulation bound; anything else keeps the f32
    /// kernel. Activations are quantized dynamically per row at execute
    /// time, so lowering is batch-composition-invariant. Lowered steps read
    /// weights through [`ParamSource::quant_param`] on every execute — if a
    /// later source stops providing quant data the step falls back to f32.
    pub fn lower_int8(&mut self, params: &dyn ParamSource) -> usize {
        let w_ok = |src: &Src| match src {
            Src::Param(id) => params
                .quant_param(*id)
                .is_some_and(|q| q.shape.len() == 2 && q.shape[0] <= quant::I8_MAX_IN_DIM),
            _ => false,
        };
        let mut lowered = 0;
        for step in &mut self.steps {
            let ok = match &step.kind {
                PKind::Linear | PKind::LinearGelu => w_ok(&step.srcs[1]),
                PKind::Mlp { w2_at, .. } => w_ok(&step.srcs[1]) && w_ok(&step.srcs[*w2_at]),
                _ => false,
            };
            if ok {
                step.int8 = true;
                lowered += 1;
            }
        }
        lowered
    }

    /// Number of plan steps (reshape aliases included).
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// How many steps are currently lowered onto the int8 kernels.
    pub fn int8_steps(&self) -> usize {
        self.steps.iter().filter(|s| s.int8).count()
    }

    /// Multi-line description of the plan: ordered ops with their shapes
    /// (a proportional axis reads `b`, or `7b` for 7 per sample), fusions
    /// chosen, inputs, and the arena as `S·b + F` lanes. Stable enough to
    /// diff in review.
    pub fn describe(&self) -> String {
        use fmt::Write;
        let mut s = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let srcs: Vec<String> = step
                .srcs
                .iter()
                .map(|src| match src {
                    Src::Step(j) => format!("%{j}"),
                    Src::Input(k) => format!("in{k}"),
                    Src::Param(id) => format!("p{id}"),
                    Src::Const(c) => format!("c{c}"),
                })
                .collect();
            let alias = if matches!(step.kind, PKind::Reshape) { "  [alias]" } else { "" };
            let precision = if step.int8 { "  [int8]" } else { "" };
            let _ = writeln!(
                s,
                "  %{i:<3} = {:<14} ({}) -> {}{alias}{precision}",
                step.kind.name(),
                srcs.join(", "),
                step.shape,
            );
        }
        let _ = writeln!(s, "  output: {}", self.out_shape);
        if self.fusions.is_empty() {
            let _ = writeln!(s, "  fusions: none");
        } else {
            for f in &self.fusions {
                let _ = writeln!(s, "  fusion: {f}");
            }
        }
        let inputs: Vec<String> = self.inputs.iter().map(|p| p.to_string()).collect();
        let _ = writeln!(
            s,
            "  arena: {}·b + {} f32 ({} KiB per sample), {} consts, inputs {}",
            self.sample_lanes,
            self.fixed_lanes,
            self.sample_lanes * 4 / 1024,
            self.consts.len(),
            inputs.join(", ")
        );
        s
    }

    /// Executes the plan: binds `inputs` (the model's prelude tensors, in
    /// order) and `params`, replays the kernel sequence through `arena`, and
    /// returns the prediction. The batch is whatever `inputs` carry; the
    /// result is bit-identical to tape eval of the traced forward at that
    /// batch, for every kernel tier.
    ///
    /// # Panics
    /// Panics if an input's length is not a whole number of samples of its
    /// traced per-sample shape (or, for an input without a batch axis, not
    /// exactly that shape), or if the inputs disagree on the batch.
    pub fn execute(
        &self,
        params: &dyn ParamSource,
        inputs: &[Tensor],
        arena: &mut PlanArena,
    ) -> Tensor {
        self.run(params, inputs, arena, |_| {})
    }

    /// Times each executed step of `reps` runs of [`execute`](Self::execute)
    /// (after one warm-up run) and returns one entry per non-alias step, in
    /// plan order, with its median time. Profiling runs the same loop as
    /// `execute`, at the batch `inputs` carry, so it measures exactly the
    /// kernels serving runs.
    ///
    /// # Panics
    /// As [`execute`](Self::execute), and if `reps` is 0.
    pub fn profile(
        &self,
        params: &dyn ParamSource,
        inputs: &[Tensor],
        arena: &mut PlanArena,
        reps: usize,
    ) -> Vec<StepProfile> {
        assert!(reps > 0, "profile needs at least one run");
        self.execute(params, inputs, arena);
        let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); self.steps.len()];
        for _ in 0..reps {
            let mut last = std::time::Instant::now();
            self.run(params, inputs, arena, |i| {
                let now = std::time::Instant::now();
                samples[i].push((now - last).as_secs_f64() * 1e6);
                last = now;
            });
        }
        let b = self.batch_of(inputs);
        let shape_of = |src: Src| -> Vec<usize> {
            match src {
                Src::Input(k) => self.inputs[k].at(b).to_vec(),
                Src::Param(id) => params.param_value(id).shape().to_vec(),
                Src::Const(c) => self.consts[c].shape().to_vec(),
                Src::Step(i) => self.steps[i].shape.at(b).to_vec(),
            }
        };
        let mut out = Vec::new();
        for (i, (step, times)) in self.steps.iter().zip(&mut samples).enumerate() {
            if times.is_empty() {
                continue; // reshape alias: never executed
            }
            times.sort_by(f64::total_cmp);
            let shape = step.shape.at(b);
            let rows = shape[..shape.len().saturating_sub(1)].iter().product::<usize>();
            let flops = match &step.kind {
                PKind::Linear | PKind::LinearGelu => {
                    let w = shape_of(step.srcs[1]);
                    2 * rows * w[0] * w[1]
                }
                PKind::Mlp { w2_at, hidden } => {
                    let (w1, w2) = (shape_of(step.srcs[1]), shape_of(step.srcs[*w2_at]));
                    2 * rows * (w1[0] * hidden + hidden * w2[1])
                }
                _ => 0,
            };
            out.push(StepProfile {
                step: i,
                kind: step.kind.name(),
                shape: shape.to_vec(),
                us: times[times.len() / 2],
                flops,
            });
        }
        out
    }

    /// The batch `inputs` carry: every input with a proportional axis holds
    /// a whole number `b` of its per-sample length (the same `b` for all),
    /// and every other input exactly its traced length.
    fn batch_of(&self, inputs: &[Tensor]) -> usize {
        assert_eq!(inputs.len(), self.inputs.len(), "plan input count");
        let mut batch = None;
        for (k, (t, s)) in inputs.iter().zip(&self.inputs).enumerate() {
            // Length, not shape: prelude tensors may carry a pre-reshape
            // layout; the plan uses the on-tape shape it recorded.
            let per = s.numel();
            if s.axis.is_none() || per == 0 {
                assert_eq!(t.len(), per, "plan input {k} length mismatch");
                continue;
            }
            assert!(
                t.len() % per == 0 && !t.is_empty(),
                "plan input {k} holds {} lanes, not a whole number of {per}-lane samples",
                t.len()
            );
            let b = t.len() / per;
            assert!(
                batch.is_none_or(|x| x == b),
                "plan inputs disagree on the batch: {b} vs {batch:?}"
            );
            batch = Some(b);
        }
        batch.expect("a compiled plan has an input carrying the batch")
    }

    /// The execute loop, shared by [`execute`](Self::execute) (whose
    /// `observe` is a no-op that compiles away) and
    /// [`profile`](Self::profile). `observe(i)` runs right after step `i`
    /// finishes; reshape aliases are skipped and never observed.
    fn run(
        &self,
        params: &dyn ParamSource,
        inputs: &[Tensor],
        arena: &mut PlanArena,
        mut observe: impl FnMut(usize),
    ) -> Tensor {
        let batch = self.batch_of(inputs);
        let lanes = self.sample_lanes;
        if arena.buf.len() < self.arena_len(batch) {
            arena.buf.resize(self.arena_len(batch), 0.0);
        }
        let base = arena.buf.as_mut_ptr();

        // Resolves a source to (shape, data) at `batch`. SAFETY:
        // `Root::Arena` regions were assigned disjoint offsets for all
        // concurrently live buffers (inclusive liveness intervals, scaled by
        // `batch` within the per-sample region), so a source slice never
        // overlaps the output or scratch regions written by the current
        // step.
        let src_view = |s: Src| -> (Dims, &[f32]) {
            match s {
                Src::Input(k) => (self.inputs[k].at(batch), inputs[k].data()),
                Src::Param(id) => {
                    let t = params.param_value(id);
                    (Dims::of(t.shape()), t.data())
                }
                Src::Const(c) => (Dims::of(self.consts[c].shape()), self.consts[c].data()),
                Src::Step(i) => {
                    let step = &self.steps[i];
                    let data: &[f32] = match &step.root {
                        Root::Arena(r) => {
                            let (off, len) = r.at(batch, lanes);
                            unsafe { std::slice::from_raw_parts(base.add(off).cast_const(), len) }
                        }
                        Root::Input(k) => inputs[*k].data(),
                        Root::Param(id) => params.param_value(*id).data(),
                        Root::Const(c) => self.consts[*c].data(),
                    };
                    (step.shape.at(batch), data)
                }
            }
        };
        let scratch = |step: &Step, slot: usize| step_scratch(base, step.scratch[slot], batch, lanes);

        for (i, step) in self.steps.iter().enumerate() {
            if matches!(step.kind, PKind::Reshape) {
                continue; // zero-copy alias
            }
            let Root::Arena(region) = step.root else {
                unreachable!("non-alias step without arena region")
            };
            let (off, out_len) = region.at(batch, lanes);
            // SAFETY: see `src_view` — the output region is disjoint from
            // every live source and scratch region by construction.
            let out: &mut [f32] =
                unsafe { std::slice::from_raw_parts_mut(base.add(off), out_len) };

            match &step.kind {
                PKind::Reshape => unreachable!("reshape steps are aliases"),
                PKind::Binary(bin) => {
                    let a = src_view(step.srcs[0]).1;
                    let b = src_view(step.srcs[1]).1;
                    ew::binary(*bin, a, b, out);
                }
                PKind::Neg => map_into(src_view(step.srcs[0]).1, out, |x| -x),
                PKind::Sqrt => map_into(src_view(step.srcs[0]).1, out, f32::sqrt),
                PKind::Abs => map_into(src_view(step.srcs[0]).1, out, f32::abs),
                PKind::Recip => map_into(src_view(step.srcs[0]).1, out, |x| 1.0 / x),
                PKind::Tanh => map_into(src_view(step.srcs[0]).1, out, f32::tanh),
                PKind::Scale(s) => ew::scale(src_view(step.srcs[0]).1, *s, out),
                PKind::AddScalar(s) => ew::add_scalar(src_view(step.srcs[0]).1, *s, out),
                PKind::Square => ew::square(src_view(step.srcs[0]).1, out),
                PKind::Relu => ew::relu(src_view(step.srcs[0]).1, out),
                PKind::Gelu => ew::gelu(src_view(step.srcs[0]).1, out),
                PKind::Linear => {
                    let x = src_view(step.srcs[0]).1;
                    let (ws, w) = src_view(step.srcs[1]);
                    let bias = step.srcs.get(2).map(|&s| src_view(s).1);
                    let (in_dim, out_dim) = (ws[0], ws[1]);
                    if let Some(qw) = step.int8.then(|| quant_src(params, step.srcs[1])).flatten()
                    {
                        quant::linear_i8_into(x, x.len() / in_dim, in_dim, qw, bias, false, out);
                    } else {
                        linear_into(x, x.len() / in_dim, in_dim, w, out_dim, bias, out);
                    }
                }
                PKind::LinearGelu => {
                    let x = src_view(step.srcs[0]).1;
                    let (ws, w) = src_view(step.srcs[1]);
                    let bias = step.srcs.get(2).map(|&s| src_view(s).1);
                    let (in_dim, out_dim) = (ws[0], ws[1]);
                    if let Some(qw) = step.int8.then(|| quant_src(params, step.srcs[1])).flatten()
                    {
                        // The int8 epilogue fuses bias + GELU, so the
                        // pre-activation scratch is bypassed entirely.
                        quant::linear_i8_into(x, x.len() / in_dim, in_dim, qw, bias, true, out);
                    } else {
                        let pre = scratch(step, 0);
                        linear_into(x, x.len() / in_dim, in_dim, w, out_dim, bias, pre);
                        ew::gelu(pre, out);
                    }
                }
                PKind::Mlp { w2_at, hidden } => {
                    let x = src_view(step.srcs[0]).1;
                    let (w1s, w1) = src_view(step.srcs[1]);
                    let b1 = (*w2_at == 3).then(|| src_view(step.srcs[2]).1);
                    let (w2s, w2) = src_view(step.srcs[*w2_at]);
                    let b2 = step.srcs.get(*w2_at + 1).map(|&s| src_view(s).1);
                    let in_dim = w1s[0];
                    let rows = x.len() / in_dim;
                    let pre = scratch(step, 0);
                    let h = scratch(step, 1);
                    let q1 = step.int8.then(|| quant_src(params, step.srcs[1])).flatten();
                    let q2 = step.int8.then(|| quant_src(params, step.srcs[*w2_at])).flatten();
                    if let (Some(qw1), Some(qw2)) = (q1, q2) {
                        quant::linear_i8_into(x, rows, in_dim, qw1, b1, true, h);
                        quant::linear_i8_into(h, rows, *hidden, qw2, b2, false, out);
                    } else {
                        linear_into(x, rows, in_dim, w1, *hidden, b1, pre);
                        ew::gelu(pre, h);
                        linear_into(h, rows, *hidden, w2, w2s[1], b2, out);
                    }
                }
                PKind::Matmul => {
                    let (a_s, a) = src_view(step.srcs[0]);
                    let (b_s, b) = src_view(step.srcs[1]);
                    matmul_nn_into(&a_s, a, &b_s, b, out);
                }
                PKind::Permute(perm) => {
                    let (in_s, a) = src_view(step.srcs[0]);
                    permute_into(&in_s, a, perm, out);
                }
                PKind::PadAxis { axis, before, after } => {
                    let (in_s, a) = src_view(step.srcs[0]);
                    pad_axis_into(&in_s, a, *axis, *before, *after, out);
                }
                PKind::Narrow { axis, start, len } => {
                    let (in_s, a) = src_view(step.srcs[0]);
                    narrow_into(&in_s, a, *axis, *start, *len, out);
                }
                PKind::Concat { axis } => {
                    // Source views gather on the stack, as `permute_into`'s
                    // work arrays do, with a heap fallback for many parts.
                    let mut inline = [(Dims::EMPTY, &[][..]); INLINE_PARTS];
                    let heap: Vec<(Dims, &[f32])>;
                    let parts: &[(Dims, &[f32])] = if step.srcs.len() <= INLINE_PARTS {
                        for (part, &s) in inline.iter_mut().zip(&step.srcs) {
                            *part = src_view(s);
                        }
                        &inline[..step.srcs.len()]
                    } else {
                        heap = step.srcs.iter().map(|&s| src_view(s)).collect();
                        &heap
                    };
                    concat_into(parts, *axis, out);
                }
                PKind::SumAll => out[0] = kred::sum(src_view(step.srcs[0]).1),
                PKind::MeanAll => {
                    let a = src_view(step.srcs[0]).1;
                    out[0] = if a.is_empty() { 0.0 } else { kred::sum(a) / a.len() as f32 };
                }
                PKind::SumAxis(ax) => {
                    let (in_s, a) = src_view(step.srcs[0]);
                    sum_axis_into(&in_s, a, *ax, out);
                }
                PKind::MeanAxis(ax) => {
                    let (in_s, a) = src_view(step.srcs[0]);
                    sum_axis_into(&in_s, a, *ax, out);
                    // Same per-element product as the tape's `scale` kernel.
                    let s = 1.0 / in_s[*ax] as f32;
                    for v in out.iter_mut() {
                        *v *= s;
                    }
                }
                PKind::BroadcastLast(ext) => {
                    let a = src_view(step.srcs[0]).1;
                    for (chunk, &x) in out.chunks_exact_mut(*ext).zip(a) {
                        chunk.fill(x);
                    }
                }
                PKind::MulBcastLast => {
                    let a = src_view(step.srcs[0]).1;
                    let b = src_view(step.srcs[1]).1;
                    out.copy_from_slice(a);
                    for chunk in out.chunks_exact_mut(b.len()) {
                        for (x, &bv) in chunk.iter_mut().zip(b) {
                            *x *= bv;
                        }
                    }
                }
                PKind::AddBcastLast => {
                    let a = src_view(step.srcs[0]).1;
                    let b = src_view(step.srcs[1]).1;
                    out.copy_from_slice(a);
                    ew::add_bias(out, b);
                }
                PKind::LayerNorm { eps } => {
                    let x = src_view(step.srcs[0]).1;
                    let gamma = src_view(step.srcs[1]).1;
                    let beta = src_view(step.srcs[2]).1;
                    let mean = scratch(step, 0);
                    let rstd = scratch(step, 1);
                    norm::layernorm_fwd(x, gamma.len(), gamma, beta, *eps, out, mean, rstd);
                }
                PKind::MaxPoolLast { k } => {
                    let (in_s, a) = src_view(step.srcs[0]);
                    let last = *in_s.last().unwrap();
                    let out_last = last / k;
                    let rows = a.len() / last;
                    let mut idx = 0usize;
                    for r in 0..rows {
                        let row = &a[r * last..(r + 1) * last];
                        for w in 0..out_last {
                            let base_i = w * k;
                            let mut best = f32::NEG_INFINITY;
                            // First-max semantics, exactly like the tape op.
                            for &v in &row[base_i..base_i + k] {
                                if v > best {
                                    best = v;
                                }
                            }
                            out[idx] = best;
                            idx += 1;
                        }
                    }
                }
                PKind::SoftmaxLast => {
                    let (in_s, a) = src_view(step.srcs[0]);
                    norm::softmax_rows(a, *in_s.last().unwrap(), out);
                }
            }
            observe(i);
        }

        let (shape, data) = src_view(self.out_src);
        Tensor::from_vec(&shape, data.to_vec())
    }
}

/// Mirrors `Tensor::map` element order into a preallocated slice.
fn map_into(src: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    for (o, &x) in out.iter_mut().zip(src) {
        *o = f(x);
    }
}

/// Mutable view of a step-local scratch region at batch `b`.
///
/// SAFETY: scratch regions have liveness `[step, step]`, so the allocator
/// keeps them disjoint from the step's sources, its output, and each other.
fn step_scratch<'a>(base: *mut f32, region: Region, b: usize, lanes: usize) -> &'a mut [f32] {
    let (off, len) = region.at(b, lanes);
    unsafe { std::slice::from_raw_parts_mut(base.add(off), len) }
}

/// The quantized view of a weight source, when the source is a parameter
/// the [`ParamSource`] holds int8 data for.
fn quant_src(params: &dyn ParamSource, src: Src) -> Option<QuantView<'_>> {
    match src {
        Src::Param(id) => params.quant_param(id),
        _ => None,
    }
}

/// Walks reshape alias chains down to the owning source: either an
/// arena-owning (non-reshape) step or an external input/param/const.
fn alias_owner(steps: &[Step], mut i: usize) -> Src {
    loop {
        if !matches!(steps[i].kind, PKind::Reshape) {
            return Src::Step(i);
        }
        match steps[i].srcs[0] {
            Src::Step(j) => i = j,
            ext => return ext,
        }
    }
}

/// A [`PlanError::TraceMismatch`] at node `idx` unless `equal`.
fn same(idx: usize, what: &str, equal: bool) -> Result<(), PlanError> {
    if equal {
        Ok(())
    } else {
        Err(PlanError::TraceMismatch(format!("node {idx}: {what} differs between the traces")))
    }
}

/// Scratch lane counts a step of `kind` with output `shape` needs, in slot
/// order.
fn scratch_lens(kind: &PKind, shape: &[usize]) -> Vec<usize> {
    match kind {
        PKind::LinearGelu => vec![shape.iter().product::<usize>().max(1)],
        PKind::Mlp { hidden, .. } => {
            let rows: usize = shape[..shape.len() - 1].iter().product();
            vec![rows * hidden, rows * hidden]
        }
        PKind::LayerNorm { .. } => {
            let d = *shape.last().unwrap();
            let rows = shape.iter().product::<usize>() / d.max(1);
            vec![rows, rows]
        }
        _ => Vec::new(),
    }
}

/// Fusion pass. Reshape aliasing is implicit (reshape steps never execute);
/// this rewrites single-consumer `Linear → Gelu` pairs into `LinearGelu`
/// and single-consumer `LinearGelu → Linear` pairs into a fused MLP-block
/// super-step. Both replay the exact kernel sequence of the ops they
/// replace, so fusion can never change output bits — the legality condition
/// is purely that the intermediate value has no other consumer.
fn fuse(steps: Vec<Step>, out_src: Src) -> (Vec<Step>, Src, Vec<String>) {
    let mut steps: Vec<Option<Step>> = steps.into_iter().map(Some).collect();
    let mut fusions: Vec<String> = Vec::new();

    let consumers = |steps: &[Option<Step>], out_src: Src, target: usize| -> usize {
        let mut n = 0usize;
        for s in steps.iter().flatten() {
            n += s.srcs.iter().filter(|&&x| x == Src::Step(target)).count();
        }
        if out_src == Src::Step(target) {
            n += 1;
        }
        n
    };

    // Pass 1: Linear → Gelu (single consumer) becomes LinearGelu, matching
    // the tape's own fused op: the same sgemm + add_bias + gelu sequence.
    for j in 0..steps.len() {
        let Some(sj) = &steps[j] else { continue };
        if !matches!(sj.kind, PKind::Gelu) {
            continue;
        }
        let Src::Step(i) = sj.srcs[0] else { continue };
        let Some(si) = &steps[i] else { continue };
        if !matches!(si.kind, PKind::Linear) || consumers(&steps, out_src, i) != 1 {
            continue;
        }
        fusions.push(format!("Linear(%{i}) + Gelu(%{j}) -> LinearGelu"));
        steps[j] = Some(Step::new(PKind::LinearGelu, si.srcs.clone(), sj.shape.clone()));
        steps[i] = None;
    }

    // Pass 2: LinearGelu → Linear (single consumer) becomes one MLP-block
    // super-step: sgemm + bias + gelu into scratch, then the second sgemm.
    for j in 0..steps.len() {
        let Some(sj) = &steps[j] else { continue };
        if !matches!(sj.kind, PKind::Linear) {
            continue;
        }
        let Src::Step(i) = sj.srcs[0] else { continue };
        let Some(si) = &steps[i] else { continue };
        if !matches!(si.kind, PKind::LinearGelu) || consumers(&steps, out_src, i) != 1 {
            continue;
        }
        let mut srcs = si.srcs.clone();
        let w2_at = srcs.len();
        srcs.extend_from_slice(&sj.srcs[1..]);
        let hidden = *si.shape.dims.last().unwrap();
        fusions.push(format!("LinearGelu(%{i}) + Linear(%{j}) -> MlpBlock (hidden {hidden})"));
        steps[j] = Some(Step::new(PKind::Mlp { w2_at, hidden }, srcs, sj.shape.clone()));
        steps[i] = None;
    }

    // Compact and remap step indices.
    let mut remap = vec![usize::MAX; steps.len()];
    let mut out: Vec<Step> = Vec::new();
    for (i, s) in steps.into_iter().enumerate() {
        if let Some(s) = s {
            remap[i] = out.len();
            out.push(s);
        }
    }
    for s in &mut out {
        for src in &mut s.srcs {
            if let Src::Step(i) = src {
                *i = remap[*i];
            }
        }
    }
    let out_src = match out_src {
        Src::Step(i) => Src::Step(remap[i]),
        other => other,
    };
    (out, out_src, fusions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_tensor::rng::Rng;

    struct Params(Vec<Tensor>);
    impl ParamSource for Params {
        fn param_value(&self, id: ParamId) -> &Tensor {
            &self.0[id]
        }
    }

    fn randn(shape: &[usize], seed: u64) -> Tensor {
        Tensor::randn(shape, 1.0, &mut Rng::seed_from(seed))
    }

    /// A random input of `batch` samples of shape `sample`.
    fn input(batch: usize, sample: &[usize], seed: u64) -> Tensor {
        let shape: Vec<usize> = std::iter::once(batch).chain(sample.iter().copied()).collect();
        randn(&shape, seed)
    }

    /// Traces `f` in eval mode on `x` and returns (graph, out var).
    fn trace(
        params: &Params,
        x: &Tensor,
        f: impl Fn(&Graph, Var, &[Var]) -> Var,
    ) -> (Graph, Var) {
        let g = Graph::eval();
        let xv = g.input(x.clone());
        let pv: Vec<Var> = params
            .0
            .iter()
            .enumerate()
            .map(|(i, t)| g.param(i, t.clone()))
            .collect();
        let out = f(&g, xv, &pv);
        (g, out)
    }

    /// Tape eval of `f` on `x`.
    fn tape(params: &Params, x: &Tensor, f: impl Fn(&Graph, Var, &[Var]) -> Var) -> Tensor {
        let (g, out) = trace(params, x, f);
        g.value(out)
    }

    /// Compiles `f` from its traces at batches 1 and 2 of `sample`-shaped
    /// inputs, as `Model::compile_plan` does.
    fn compile(
        params: &Params,
        sample: &[usize],
        f: impl Fn(&Graph, Var, &[Var]) -> Var,
    ) -> Result<CompiledPlan, PlanError> {
        let (xa, xb) = (input(1, sample, 10), input(2, sample, 11));
        let (ga, oa) = trace(params, &xa, &f);
        let (gb, ob) = trace(params, &xb, &f);
        CompiledPlan::from_traces(
            &ga,
            oa,
            &gb,
            ob,
            std::slice::from_ref(&xa),
            std::slice::from_ref(&xb),
        )
    }

    fn assert_bits(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Runs `plan` at each of `batches` through `arena` and checks it
    /// against fresh tape eval at that batch, bit for bit.
    fn assert_matches_tape(
        plan: &CompiledPlan,
        params: &Params,
        sample: &[usize],
        f: impl Fn(&Graph, Var, &[Var]) -> Var,
        batches: &[usize],
        arena: &mut PlanArena,
    ) {
        for (i, &b) in batches.iter().enumerate() {
            let x = input(b, sample, 100 + i as u64);
            let want = tape(params, &x, &f);
            assert_bits(&plan.execute(params, std::slice::from_ref(&x), arena), &want);
        }
    }

    /// The plan error of compiling `f`, which must fail.
    fn compile_err(
        params: &Params,
        sample: &[usize],
        f: impl Fn(&Graph, Var, &[Var]) -> Var,
    ) -> PlanError {
        match compile(params, sample, f) {
            Ok(plan) => panic!("compile must fail:\n{}", plan.describe()),
            Err(e) => e,
        }
    }

    fn mlp_params() -> Params {
        Params(vec![
            randn(&[6, 10], 1).scale(0.3),
            randn(&[10], 2),
            randn(&[10, 4], 3).scale(0.3),
            randn(&[4], 4),
        ])
    }

    #[test]
    fn mlp_block_fuses_and_matches_tape_bits() {
        let params = mlp_params();
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let h = g.linear_gelu(x, p[0], Some(p[1]));
            g.linear(h, p[2], Some(p[3]))
        };
        let plan = compile(&params, &[3, 6], f).unwrap();
        assert!(
            plan.fusions().iter().any(|s| s.contains("MlpBlock")),
            "expected MLP fusion, got {:?}",
            plan.fusions()
        );
        let mut arena = PlanArena::new();
        assert_matches_tape(&plan, &params, &[3, 6], f, &[1, 2, 3, 8], &mut arena);
    }

    #[test]
    fn profile_times_every_executed_step_and_counts_product_flops() {
        let params = mlp_params();
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let b = g.shape_of(x)[0];
            let h = g.linear_gelu(x, p[0], Some(p[1]));
            let y = g.linear(h, p[2], Some(p[3]));
            let y = g.reshape(y, &[b * 3, 4]);
            g.permute(y, &[1, 0])
        };
        let plan = compile(&params, &[3, 6], f).unwrap();
        let x = input(2, &[3, 6], 30);
        let mut arena = PlanArena::new();
        let steps = plan.profile(&params, std::slice::from_ref(&x), &mut arena, 3);
        let kinds: Vec<&str> = steps.iter().map(|s| s.kind).collect();
        // The reshape is an alias: never executed, never profiled.
        assert_eq!(kinds, ["MlpBlock", "Permute"], "{}", plan.describe());
        // Shapes and products are the profiled batch's (2 samples of 3 rows).
        assert_eq!(steps[0].flops, 2 * 6 * (6 * 10 + 10 * 4));
        assert_eq!(steps[1].flops, 0);
        assert_eq!(steps[1].shape, [4, 6]);
        assert!(steps.iter().all(|s| s.us >= 0.0));
        // Profiling leaves the arena serving the same bits.
        let got = plan.execute(&params, std::slice::from_ref(&x), &mut arena);
        assert_bits(&got, &tape(&params, &x, f));
    }

    #[test]
    fn linear_gelu_pair_fuses_when_single_consumer() {
        let params = Params(vec![randn(&[4, 8], 1).scale(0.4), randn(&[8], 2)]);
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let h = g.linear(x, p[0], Some(p[1]));
            g.gelu(h)
        };
        let plan = compile(&params, &[4], f).unwrap();
        assert!(plan.fusions().iter().any(|s| s.contains("LinearGelu")));
        let mut arena = PlanArena::new();
        assert_matches_tape(&plan, &params, &[4], f, &[2, 5], &mut arena);
    }

    #[test]
    fn fusion_blocked_when_intermediate_has_second_consumer() {
        let params = Params(vec![randn(&[4, 4], 1).scale(0.4)]);
        // The Linear output feeds both Gelu and the final Add — no fusion.
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let h = g.linear(x, p[0], None);
            g.add(g.gelu(h), h)
        };
        let plan = compile(&params, &[4], f).unwrap();
        assert!(plan.fusions().is_empty(), "fusion must be blocked: {:?}", plan.fusions());
        let mut arena = PlanArena::new();
        assert_matches_tape(&plan, &params, &[4], f, &[2, 1, 3], &mut arena);
    }

    #[test]
    fn layout_reduction_and_norm_ops_match_tape_bits() {
        let params = Params(vec![randn(&[6], 1).abs(), randn(&[6], 2)]);
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let b = g.shape_of(x)[0];
            let y = g.layer_norm(x, p[0], p[1], 1e-5);
            let y = g.permute(y, &[0, 2, 1]);
            let y = g.reshape(y, &[b * 6, 4]);
            let y = g.pad_axis(y, 1, 1, 2);
            let y = g.narrow(y, 1, 0, 5);
            let a = g.reshape(g.mean_axis(y, 1), &[b, 6]);
            let s = g.reshape(g.sum_axis(y, 1), &[b, 6]);
            let c = g.concat(&[a, s], 1);
            let d = g.softmax_last(c);
            let e = g.maxpool_last(d, 2);
            let s = g.add_scalar(g.scale(e, 0.5), 0.25);
            // A reduction over the batch axis has a fixed shape.
            g.mul_bcast_last(s, g.sqrt(g.abs(g.mean_axis(e, 0))))
        };
        let plan = compile(&params, &[4, 6], f).unwrap();
        let mut arena = PlanArena::new();
        assert_matches_tape(&plan, &params, &[4, 6], f, &[1, 2, 3, 7], &mut arena);
    }

    #[test]
    fn constant_leaves_are_snapshotted_and_losses_rejected() {
        let params = Params(vec![]);
        let c = randn(&[5], 7);
        let f = |g: &Graph, x: Var, _p: &[Var]| g.add_bcast_last(x, g.input(c.clone()));
        let plan = compile(&params, &[5], f).unwrap();
        assert!(plan.describe().contains("1 consts"), "{}", plan.describe());
        let mut arena = PlanArena::new();
        assert_matches_tape(&plan, &params, &[5], f, &[1, 4], &mut arena);

        // A loss op must fail with UnsupportedOp, not panic.
        let loss = |g: &Graph, x: Var, _p: &[Var]| {
            let b = g.shape_of(x)[0];
            g.softmax_cross_entropy(x, &vec![0; b])
        };
        match compile_err(&params, &[5], loss) {
            PlanError::UnsupportedOp(_) => {}
            other => panic!("expected UnsupportedOp, got {other:?}"),
        }
    }

    #[test]
    fn arena_is_reused_across_shapes_without_stale_bytes() {
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let h = g.linear(x, p[0], None);
            g.mul(g.tanh(h), g.add_scalar(g.neg(h), 1.0))
        };
        let mut arena = PlanArena::new();
        // Two plans of different widths, each run at big and small batches
        // through ONE arena, each checked against fresh tape eval.
        for width in [6usize, 3] {
            let params = Params(vec![randn(&[width, width], 1).scale(0.4)]);
            let plan = compile(&params, &[width], f).unwrap();
            assert_matches_tape(&plan, &params, &[width], f, &[8, 2, 8, 3], &mut arena);
        }
    }

    #[test]
    fn describe_lists_steps_fusions_and_arena() {
        let params = Params(vec![randn(&[4, 4], 1), randn(&[4, 2], 2)]);
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let h = g.linear_gelu(x, p[0], None);
            g.linear(h, p[1], None)
        };
        let plan = compile(&params, &[3, 4], f).unwrap();
        let d = plan.describe();
        assert!(d.contains("MlpBlock"), "{d}");
        assert!(d.contains("-> [b, 3, 2]"), "proportional axis marked: {d}");
        assert!(d.contains("inputs [b, 3, 4]"), "{d}");
        // Output (6 lanes) and two scratch buffers (12 lanes each), each
        // padded to 16 lanes per sample; nothing fixed.
        assert!(d.contains("arena: 48·b + 0 f32"), "{d}");
        assert_eq!(plan.arena_len(1), 48);
        assert_eq!(plan.arena_len(8), 8 * 48);
        assert!(plan.steps() >= 1);
    }

    #[test]
    fn fixed_buffers_sit_after_the_per_sample_region() {
        // `p[0]·p[0]` depends on no input, so its buffer is fixed-size; the
        // batch rows around it scale.
        let params = Params(vec![randn(&[4, 4], 1), randn(&[4], 2)]);
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let w = g.matmul(p[0], p[0]);
            g.add_bcast_last(g.linear(x, w, None), p[1])
        };
        let plan = compile(&params, &[4], f).unwrap();
        assert!(plan.describe().contains("arena: 32·b + 16 f32"), "{}", plan.describe());
        let mut arena = PlanArena::new();
        assert_matches_tape(&plan, &params, &[4], f, &[1, 3, 2, 6], &mut arena);
        assert_eq!(arena.len(), plan.arena_len(6));
    }

    #[test]
    fn batch_dependent_row_concat_is_rejected() {
        // `[b + 1, 4]`: a constant row stacked onto the batch.
        let params = Params(vec![]);
        let row = randn(&[1, 4], 3);
        let f = |g: &Graph, x: Var, _p: &[Var]| g.concat(&[x, g.input(row.clone())], 0);
        match compile_err(&params, &[4], f) {
            PlanError::NotBatchAffine(m) => assert!(m.contains("neither"), "{m}"),
            other => panic!("expected NotBatchAffine, got {other:?}"),
        }
    }

    #[test]
    fn two_proportional_axes_are_rejected() {
        // `[b, 4] · [4, b]` gives `[b, b]`.
        let params = Params(vec![]);
        let f = |g: &Graph, x: Var, _p: &[Var]| g.matmul(x, g.permute(x, &[1, 0]));
        match compile_err(&params, &[4], f) {
            PlanError::NotBatchAffine(m) => assert!(m.contains("two proportional"), "{m}"),
            other => panic!("expected NotBatchAffine, got {other:?}"),
        }
    }

    #[test]
    fn narrow_along_the_batch_axis_is_rejected() {
        // The first sample of the batch: a fixed shape cut from a
        // proportional axis.
        let params = Params(vec![]);
        let f = |g: &Graph, x: Var, _p: &[Var]| g.narrow(x, 0, 0, 1);
        match compile_err(&params, &[4], f) {
            PlanError::NotBatchAffine(m) => assert!(m.contains("Narrow along"), "{m}"),
            other => panic!("expected NotBatchAffine, got {other:?}"),
        }
    }

    #[test]
    fn batch_dependent_payload_is_rejected() {
        // Scaling by the batch size: the scalar differs between the traces.
        let params = Params(vec![]);
        let f = |g: &Graph, x: Var, _p: &[Var]| {
            let b = g.shape_of(x)[0];
            g.scale(x, b as f32)
        };
        match compile_err(&params, &[4], f) {
            PlanError::TraceMismatch(m) => assert!(m.contains("Scale"), "{m}"),
            other => panic!("expected TraceMismatch, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn execute_rejects_a_partial_sample() {
        let params = Params(vec![randn(&[4, 2], 1)]);
        let f = |g: &Graph, x: Var, p: &[Var]| g.linear(x, p[0], None);
        let plan = compile(&params, &[4], f).unwrap();
        plan.execute(&params, &[randn(&[6], 5)], &mut PlanArena::new());
    }
}
