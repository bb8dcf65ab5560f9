//! Compiled inference plans: ahead-of-time execution of a traced eval
//! forward pass.
//!
//! A [`CompiledPlan`] is built by tracing a model's eval-mode forward twice
//! (with two distinct probe inputs) and lowering the tape into a
//! topologically ordered list of kernel calls over a single reusable buffer
//! [`PlanArena`]:
//!
//! * **Leaf classification** — tape leaves are either parameters (identified
//!   by their [`ParamId`]), *variable inputs* (byte-matched, in push order,
//!   against the prelude tensors the model derives from the raw input), or
//!   *constants* (byte-identical across both probe traces, snapshotted into
//!   the plan). Anything else fails compilation with a typed [`PlanError`] —
//!   the caller falls back to the tape path, so a failed compile can never
//!   produce wrong bits.
//! * **Fusion** — chosen at plan time by a pattern matcher that proves
//!   safety: `Reshape` becomes a zero-copy alias, a single-consumer
//!   `Linear → Gelu` pair becomes the fused `LinearGelu` kernel sequence,
//!   and a single-consumer `LinearGelu → Linear` pair becomes a whole
//!   MLP-block super-step. Every fusion replays exactly the kernel calls the
//!   tape ops perform, so outputs stay bit-identical.
//! * **Liveness → offsets** — each step output gets an inclusive liveness
//!   interval `[producer, last consumer]`; a first-fit scan assigns
//!   64-byte-aligned offsets in one arena sized once per plan. Because the
//!   intervals are inclusive, a step's output region is always disjoint from
//!   its input regions.
//!
//! The bit-identity contract: executing a plan calls the *same*
//! `msd_tensor` kernel entry points (`ops::linear_into`, `ops::kernels::ew`,
//! `ops::kernels::norm`, ...) in the same order as the tape ops it replaces,
//! so results are bit-identical to `Graph`-based eval for every SIMD tier
//! (`MSD_KERNEL_FORCE` is re-read per dispatch) and thread count.

use std::fmt;

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
    /// The two probe traces disagreed structurally (op kinds, payloads,
    /// parents, or shapes) — the forward is not trace-deterministic.
    TraceMismatch(String),
    /// The tape contains an op the plan executor does not support (losses,
    /// train-only ops).
    UnsupportedOp(&'static str),
    /// A non-parameter leaf could not be matched against the model's
    /// declared plan prelude and is not constant across probes.
    PreludeMismatch(String),
    /// The compiled plan's output did not byte-match tape eval on a probe
    /// input (caught at compile time, before the plan is ever used).
    Verification(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::TraceMismatch(m) => write!(f, "plan trace mismatch: {m}"),
            PlanError::UnsupportedOp(op) => write!(f, "plan-unsupported op: {op}"),
            PlanError::PreludeMismatch(m) => write!(f, "plan prelude mismatch: {m}"),
            PlanError::Verification(m) => write!(f, "plan verification failed: {m}"),
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

/// Where a step's output bytes live at execute time.
#[derive(Clone, Debug)]
enum Root {
    /// A region of the plan arena.
    Arena { off: usize, len: usize },
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
    shape: Vec<usize>,
    /// Filled in by the allocator.
    root: Root,
    /// Step-local scratch regions `(off, len)` filled in by the allocator.
    scratch: Vec<(usize, usize)>,
    /// Set by [`CompiledPlan::lower_int8`]: run this step's matmuls on the
    /// int8 kernels, reading weights via [`ParamSource::quant_param`].
    int8: bool,
}

fn blank_root() -> Root {
    Root::Arena { off: 0, len: 0 }
}

/// A compiled, shape-specialised inference plan. See the module docs.
pub struct CompiledPlan {
    steps: Vec<Step>,
    consts: Vec<Tensor>,
    input_shapes: Vec<Vec<usize>>,
    arena_len: usize,
    out_src: Src,
    out_shape: Vec<usize>,
    fusions: Vec<String>,
}

/// Reusable execution buffer for [`CompiledPlan::execute`]. One arena can be
/// shared by plans of different shapes; it grows to the largest plan it has
/// executed, and every step fully overwrites its region, so recycling across
/// shape changes can never leak stale bytes into an output.
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
    /// Compiles two probe traces of the same forward into a plan.
    ///
    /// `ga`/`gb` are eval graphs holding the tapes of the forward applied to
    /// two *distinct* probe inputs; `out_a`/`out_b` are the prediction vars;
    /// `prelude_a`/`prelude_b` are the model's declared input-derived leaf
    /// tensors (see `Model::plan_prelude`) for each probe. Non-parameter
    /// leaves that differ between traces must byte-match the prelude tensors
    /// in push order; leaves identical across traces are snapshotted as
    /// constants.
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
        let mut input_shapes: Vec<Vec<usize>> = Vec::new();
        let mut lowered: Vec<Src> = Vec::with_capacity(nodes_a.len());
        let mut steps: Vec<Step> = Vec::new();
        let mut input_cursor = 0usize;

        for (idx, (na, nb)) in nodes_a.iter().zip(nodes_b.iter()).enumerate() {
            if na.op.name() != nb.op.name() {
                return Err(PlanError::TraceMismatch(format!(
                    "node {idx}: op {} vs {}",
                    na.op.name(),
                    nb.op.name()
                )));
            }
            if na.value.shape() != nb.value.shape() {
                return Err(PlanError::TraceMismatch(format!(
                    "node {idx} ({}): shape {:?} vs {:?}",
                    na.op.name(),
                    na.value.shape(),
                    nb.value.shape()
                )));
            }
            if na.parents != nb.parents {
                return Err(PlanError::TraceMismatch(format!(
                    "node {idx} ({}): parent sets differ",
                    na.op.name()
                )));
            }

            // Leaves: classify as parameter / constant / variable input.
            if matches!(na.op, Op::Leaf) {
                if let Some(id) = na.param {
                    if nb.param != Some(id) {
                        return Err(PlanError::TraceMismatch(format!(
                            "node {idx}: param id {:?} vs {:?}",
                            na.param, nb.param
                        )));
                    }
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
                    input_shapes.push(na.value.shape().to_vec());
                    lowered.push(Src::Input(k));
                }
                continue;
            }

            // Interior node: lower the op.
            let mut srcs: Vec<Src> =
                na.parents.iter().map(|p| lowered[p.0 as usize]).collect();
            let out_shape = na.value.shape().to_vec();

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
                    check_scalar(idx, "Scale", *sa, *sb)?;
                    PKind::Scale(*sa)
                }
                (Op::AddScalar(sa), Op::AddScalar(sb)) => {
                    check_scalar(idx, "AddScalar", *sa, *sb)?;
                    PKind::AddScalar(*sa)
                }
                (Op::MulConst(ca), Op::MulConst(cb)) => {
                    if ca != cb {
                        return Err(PlanError::TraceMismatch(format!(
                            "node {idx}: MulConst payload differs across probes"
                        )));
                    }
                    consts.push(ca.clone());
                    srcs.push(Src::Const(consts.len() - 1));
                    PKind::Binary(ew::Bin::Mul)
                }
                (Op::AddConst(ca), Op::AddConst(cb)) => {
                    if ca != cb {
                        return Err(PlanError::TraceMismatch(format!(
                            "node {idx}: AddConst payload differs across probes"
                        )));
                    }
                    consts.push(ca.clone());
                    srcs.push(Src::Const(consts.len() - 1));
                    PKind::Binary(ew::Bin::Add)
                }
                (Op::Linear, _) => PKind::Linear,
                (Op::LinearGelu { .. }, _) => PKind::LinearGelu,
                (Op::Matmul { .. }, _) => PKind::Matmul,
                (Op::Permute(pa), Op::Permute(pb)) => {
                    if pa != pb {
                        return Err(PlanError::TraceMismatch(format!(
                            "node {idx}: Permute axes differ across probes"
                        )));
                    }
                    PKind::Permute(pa.clone())
                }
                (Op::Reshape, _) => PKind::Reshape,
                (
                    Op::PadAxis { axis, before, orig_len },
                    Op::PadAxis { axis: xb, before: bb, orig_len: ob },
                ) => {
                    if (axis, before, orig_len) != (xb, bb, ob) {
                        return Err(PlanError::TraceMismatch(format!(
                            "node {idx}: PadAxis payload differs across probes"
                        )));
                    }
                    PKind::PadAxis {
                        axis: *axis,
                        before: *before,
                        after: out_shape[*axis] - orig_len - before,
                    }
                }
                (
                    Op::Narrow { axis, start, .. },
                    Op::Narrow { axis: xb, start: sb, .. },
                ) => {
                    if (axis, start) != (xb, sb) {
                        return Err(PlanError::TraceMismatch(format!(
                            "node {idx}: Narrow payload differs across probes"
                        )));
                    }
                    PKind::Narrow { axis: *axis, start: *start, len: out_shape[*axis] }
                }
                (Op::Concat { axis, .. }, Op::Concat { axis: xb, .. }) => {
                    if axis != xb {
                        return Err(PlanError::TraceMismatch(format!(
                            "node {idx}: Concat axis differs across probes"
                        )));
                    }
                    PKind::Concat { axis: *axis }
                }
                (Op::SumAll, _) => PKind::SumAll,
                (Op::MeanAll, _) => PKind::MeanAll,
                (Op::SumAxis(ax), _) => PKind::SumAxis(*ax),
                (Op::MeanAxis(ax), _) => PKind::MeanAxis(*ax),
                (Op::BroadcastLast(ext), _) => PKind::BroadcastLast(*ext),
                (Op::MulBcastLast, _) => PKind::MulBcastLast,
                (Op::AddBcastLast, _) => PKind::AddBcastLast,
                (Op::LayerNorm { eps, .. }, Op::LayerNorm { eps: eb, .. }) => {
                    check_scalar(idx, "LayerNorm eps", *eps, *eb)?;
                    PKind::LayerNorm { eps: *eps }
                }
                (Op::MaxPoolLast { .. }, _) => {
                    let in_last =
                        *nodes_a[na.parents[0].0 as usize].value.shape().last().unwrap();
                    let out_last = *out_shape.last().unwrap();
                    PKind::MaxPoolLast { k: in_last / out_last }
                }
                (Op::SoftmaxLast, _) => PKind::SoftmaxLast,
                (Op::SoftmaxCe { .. }, _) => return Err(PlanError::UnsupportedOp("SoftmaxCe")),
                (Op::AcfHinge { .. }, _) => return Err(PlanError::UnsupportedOp("AcfHinge")),
                (Op::FusedLoss { .. }, _) => return Err(PlanError::UnsupportedOp("FusedLoss")),
                _ => {
                    return Err(PlanError::TraceMismatch(format!(
                        "node {idx}: op payloads of different kinds across probes"
                    )))
                }
            };

            lowered.push(Src::Step(steps.len()));
            steps.push(Step {
                kind,
                srcs,
                shape: out_shape,
                root: blank_root(),
                scratch: Vec::new(),
                int8: false,
            });
        }

        if input_cursor != prelude_a.len() {
            return Err(PlanError::PreludeMismatch(format!(
                "{} prelude tensors declared, {} consumed by the trace",
                prelude_a.len(),
                input_cursor
            )));
        }

        let out_src = lowered[out_a.0 as usize];
        let _ = out_b;
        let out_shape = nodes_a[out_a.0 as usize].value.shape().to_vec();
        drop(nodes_a);
        drop(nodes_b);

        let (steps, out_src, fusions) = fuse(steps, out_src);
        let mut plan = CompiledPlan {
            steps,
            consts,
            input_shapes,
            arena_len: 0,
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
        // scratch (live only at the producing step).
        struct Req {
            birth: usize,
            death: usize,
            len: usize,
            step: usize,
            scratch: Option<usize>,
        }
        let mut reqs: Vec<Req> = Vec::new();
        for (i, step) in self.steps.iter().enumerate() {
            if matches!(step.kind, PKind::Reshape) {
                continue;
            }
            reqs.push(Req {
                birth: i,
                death: death[i],
                len: step.shape.iter().product::<usize>().max(1),
                step: i,
                scratch: None,
            });
            for (slot, len) in scratch_lens(step).into_iter().enumerate() {
                reqs.push(Req { birth: i, death: i, len: len.max(1), step: i, scratch: Some(slot) });
            }
        }

        // First-fit offset assignment over inclusive intervals: a previously
        // placed buffer blocks a new one iff it is still live at the new
        // buffer's birth (placement runs in birth order, so the converse
        // overlap condition always holds).
        let mut placed: Vec<(usize, usize, usize)> = Vec::new(); // (off, aligned len, death)
        let mut total = 0usize;
        for r in &reqs {
            let len = r.len.div_ceil(ALIGN) * ALIGN;
            let mut active: Vec<(usize, usize)> = placed
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
            placed.push((off, len, r.death));
            total = total.max(off + len);
            match r.scratch {
                None => self.steps[r.step].root = Root::Arena { off, len: r.len },
                Some(slot) => {
                    let sc = &mut self.steps[r.step].scratch;
                    while sc.len() <= slot {
                        sc.push((0, 0));
                    }
                    sc[slot] = (off, r.len);
                }
            }
        }

        // Resolve alias roots now that owners have regions.
        for i in 0..self.steps.len() {
            if matches!(self.steps[i].kind, PKind::Reshape) {
                self.steps[i].root = match alias_owner(&self.steps, i) {
                    Src::Step(o) => self.steps[o].root.clone(),
                    Src::Input(k) => Root::Input(k),
                    Src::Param(id) => Root::Param(id),
                    Src::Const(c) => Root::Const(c),
                };
            }
        }
        self.arena_len = total;
    }

    /// Arena size in `f32` lanes.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Number of plan steps (reshape aliases included).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Shapes the variable inputs must have, in prelude order.
    pub fn input_shapes(&self) -> &[Vec<usize>] {
        &self.input_shapes
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

    /// Total kernel steps in the plan.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// How many steps are currently lowered onto the int8 kernels.
    pub fn int8_steps(&self) -> usize {
        self.steps.iter().filter(|s| s.int8).count()
    }

    /// Multi-line description of the plan: ordered ops, fusions chosen, and
    /// arena size. Stable enough to diff in review.
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
                "  %{i:<3} = {:<14} ({}) -> {:?}{alias}{precision}",
                step.kind.name(),
                srcs.join(", "),
                step.shape,
            );
        }
        let _ = writeln!(s, "  output: {:?}", self.out_shape);
        if self.fusions.is_empty() {
            let _ = writeln!(s, "  fusions: none");
        } else {
            for f in &self.fusions {
                let _ = writeln!(s, "  fusion: {f}");
            }
        }
        let _ = writeln!(
            s,
            "  arena: {} f32 ({} KiB), {} consts, {} inputs",
            self.arena_len,
            self.arena_len * 4 / 1024,
            self.consts.len(),
            self.input_shapes.len()
        );
        s
    }

    /// Executes the plan: binds `inputs` (the model's prelude tensors, in
    /// order) and `params`, replays the kernel sequence through `arena`, and
    /// returns the prediction. Bit-identical to tape eval of the traced
    /// forward for every kernel tier and thread count.
    ///
    /// # Panics
    /// Panics if `inputs` do not match the compiled shapes — plans are
    /// shape-specialised and callers select a plan by input shape.
    pub fn execute(
        &self,
        params: &dyn ParamSource,
        inputs: &[Tensor],
        arena: &mut PlanArena,
    ) -> Tensor {
        assert_eq!(inputs.len(), self.input_shapes.len(), "plan input count");
        for (t, s) in inputs.iter().zip(&self.input_shapes) {
            // Length, not shape: prelude tensors may carry a pre-reshape
            // layout; the plan uses the on-tape shape it recorded.
            assert_eq!(
                t.len(),
                s.iter().product::<usize>(),
                "plan input length mismatch"
            );
        }
        if arena.buf.len() < self.arena_len {
            arena.buf.resize(self.arena_len, 0.0);
        }
        let base = arena.buf.as_mut_ptr();

        // Resolves a source to (shape, data). SAFETY: `Root::Arena` regions
        // were assigned disjoint offsets for all concurrently live buffers
        // (inclusive liveness intervals), so a source slice never overlaps
        // the output or scratch regions written by the current step.
        let src_view = |s: Src| -> (&[usize], &[f32]) {
            match s {
                Src::Input(k) => (self.input_shapes[k].as_slice(), inputs[k].data()),
                Src::Param(id) => {
                    let t = params.param_value(id);
                    (t.shape(), t.data())
                }
                Src::Const(c) => (self.consts[c].shape(), self.consts[c].data()),
                Src::Step(i) => {
                    let step = &self.steps[i];
                    let data: &[f32] = match &step.root {
                        Root::Arena { off, len } => unsafe {
                            std::slice::from_raw_parts(base.add(*off).cast_const(), *len)
                        },
                        Root::Input(k) => inputs[*k].data(),
                        Root::Param(id) => params.param_value(*id).data(),
                        Root::Const(c) => self.consts[*c].data(),
                    };
                    (&step.shape, data)
                }
            }
        };

        for step in &self.steps {
            if matches!(step.kind, PKind::Reshape) {
                continue; // zero-copy alias
            }
            let (off, out_len) = match &step.root {
                Root::Arena { off, len } => (*off, *len),
                _ => unreachable!("non-alias step without arena region"),
            };
            // SAFETY: see `src_view` — the output region is disjoint from
            // every live source and scratch region by construction.
            let out: &mut [f32] =
                unsafe { std::slice::from_raw_parts_mut(base.add(off), out_len) };

            match &step.kind {
                PKind::Reshape => unreachable!(),
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
                        let pre = step_scratch(base, step, 0);
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
                    let pre = step_scratch(base, step, 0);
                    let h = step_scratch(base, step, 1);
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
                    matmul_nn_into(a_s, a, b_s, b, out);
                }
                PKind::Permute(perm) => {
                    let (in_s, a) = src_view(step.srcs[0]);
                    permute_into(in_s, a, perm, out);
                }
                PKind::PadAxis { axis, before, after } => {
                    let (in_s, a) = src_view(step.srcs[0]);
                    pad_axis_into(in_s, a, *axis, *before, *after, out);
                }
                PKind::Narrow { axis, start, len } => {
                    let (in_s, a) = src_view(step.srcs[0]);
                    narrow_into(in_s, a, *axis, *start, *len, out);
                }
                PKind::Concat { axis } => {
                    let views: Vec<(&[usize], &[f32])> =
                        step.srcs.iter().map(|&s| src_view(s)).collect();
                    concat_into(&views, *axis, out);
                }
                PKind::SumAll => out[0] = kred::sum(src_view(step.srcs[0]).1),
                PKind::MeanAll => {
                    let a = src_view(step.srcs[0]).1;
                    out[0] = if a.is_empty() { 0.0 } else { kred::sum(a) / a.len() as f32 };
                }
                PKind::SumAxis(ax) => {
                    let (in_s, a) = src_view(step.srcs[0]);
                    sum_axis_into(in_s, a, *ax, out);
                }
                PKind::MeanAxis(ax) => {
                    let (in_s, a) = src_view(step.srcs[0]);
                    sum_axis_into(in_s, a, *ax, out);
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
                    let mean = step_scratch(base, step, 0);
                    let rstd = step_scratch(base, step, 1);
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
        }

        let (shape, data) = src_view(self.out_src);
        Tensor::from_vec(shape, data.to_vec())
    }
}

/// Mirrors `Tensor::map` element order into a preallocated slice.
fn map_into(src: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    for (o, &x) in out.iter_mut().zip(src) {
        *o = f(x);
    }
}

/// Mutable view of a step-local scratch region.
///
/// SAFETY: scratch regions have liveness `[step, step]`, so the allocator
/// keeps them disjoint from the step's sources, its output, and each other.
fn step_scratch<'a>(base: *mut f32, step: &Step, slot: usize) -> &'a mut [f32] {
    let (off, len) = step.scratch[slot];
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

fn check_scalar(idx: usize, what: &str, a: f32, b: f32) -> Result<(), PlanError> {
    if a.to_bits() != b.to_bits() {
        return Err(PlanError::TraceMismatch(format!(
            "node {idx}: {what} differs across probes"
        )));
    }
    Ok(())
}

/// Scratch lane counts a step needs, in slot order.
fn scratch_lens(step: &Step) -> Vec<usize> {
    match &step.kind {
        PKind::LinearGelu => vec![step.shape.iter().product::<usize>().max(1)],
        PKind::Mlp { hidden, .. } => {
            let rows: usize = step.shape[..step.shape.len() - 1].iter().product();
            vec![rows * hidden, rows * hidden]
        }
        PKind::LayerNorm { .. } => {
            let d = *step.shape.last().unwrap();
            let rows = step.shape.iter().product::<usize>() / d.max(1);
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
        let srcs = si.srcs.clone();
        let shape = sj.shape.clone();
        fusions.push(format!("Linear(%{i}) + Gelu(%{j}) -> LinearGelu"));
        steps[j] = Some(Step {
            kind: PKind::LinearGelu,
            srcs,
            shape,
            root: blank_root(),
            scratch: Vec::new(),
            int8: false,
        });
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
        let hidden = *si.shape.last().unwrap();
        let shape = sj.shape.clone();
        fusions.push(format!("LinearGelu(%{i}) + Linear(%{j}) -> MlpBlock (hidden {hidden})"));
        steps[j] = Some(Step {
            kind: PKind::Mlp { w2_at, hidden },
            srcs,
            shape,
            root: blank_root(),
            scratch: Vec::new(),
            int8: false,
        });
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

    fn compile(
        params: &Params,
        xa: &Tensor,
        xb: &Tensor,
        f: impl Fn(&Graph, Var, &[Var]) -> Var,
    ) -> Result<(CompiledPlan, Tensor, Tensor), PlanError> {
        let (ga, oa) = trace(params, xa, &f);
        let (gb, ob) = trace(params, xb, &f);
        let va = ga.value(oa).clone();
        let vb = gb.value(ob).clone();
        let plan = CompiledPlan::from_traces(
            &ga,
            oa,
            &gb,
            ob,
            std::slice::from_ref(xa),
            std::slice::from_ref(xb),
        )?;
        Ok((plan, va, vb))
    }

    fn assert_bits(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn mlp_block_fuses_and_matches_tape_bits() {
        let params = Params(vec![
            randn(&[6, 10], 1).scale(0.3),
            randn(&[10], 2),
            randn(&[10, 4], 3).scale(0.3),
            randn(&[4], 4),
        ]);
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let h = g.linear_gelu(x, p[0], Some(p[1]));
            g.linear(h, p[2], Some(p[3]))
        };
        let xa = randn(&[3, 6], 10);
        let xb = randn(&[3, 6], 11);
        let (plan, va, vb) = compile(&params, &xa, &xb, f).unwrap();
        assert!(
            plan.fusions().iter().any(|s| s.contains("MlpBlock")),
            "expected MLP fusion, got {:?}",
            plan.fusions()
        );
        let mut arena = PlanArena::new();
        assert_bits(&plan.execute(&params, &[xa], &mut arena), &va);
        assert_bits(&plan.execute(&params, &[xb], &mut arena), &vb);
    }

    #[test]
    fn linear_gelu_pair_fuses_when_single_consumer() {
        let params = Params(vec![randn(&[4, 8], 1).scale(0.4), randn(&[8], 2)]);
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let h = g.linear(x, p[0], Some(p[1]));
            g.gelu(h)
        };
        let xa = randn(&[2, 4], 20);
        let xb = randn(&[2, 4], 21);
        let (plan, va, _) = compile(&params, &xa, &xb, f).unwrap();
        assert!(plan.fusions().iter().any(|s| s.contains("LinearGelu")));
        let mut arena = PlanArena::new();
        assert_bits(&plan.execute(&params, &[xa], &mut arena), &va);
    }

    #[test]
    fn fusion_blocked_when_intermediate_has_second_consumer() {
        let params = Params(vec![randn(&[4, 4], 1).scale(0.4)]);
        // The Linear output feeds both Gelu and the final Add — no fusion.
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let h = g.linear(x, p[0], None);
            g.add(g.gelu(h), h)
        };
        let xa = randn(&[2, 4], 30);
        let xb = randn(&[2, 4], 31);
        let (plan, va, vb) = compile(&params, &xa, &xb, f).unwrap();
        assert!(plan.fusions().is_empty(), "fusion must be blocked: {:?}", plan.fusions());
        let mut arena = PlanArena::new();
        assert_bits(&plan.execute(&params, &[xa], &mut arena), &va);
        assert_bits(&plan.execute(&params, &[xb], &mut arena), &vb);
    }

    #[test]
    fn layout_reduction_and_norm_ops_match_tape_bits() {
        let params = Params(vec![randn(&[6], 1).abs(), randn(&[6], 2)]);
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let y = g.layer_norm(x, p[0], p[1], 1e-5);
            let y = g.permute(y, &[1, 0]);
            let y = g.reshape(y, &[6, 4]);
            let y = g.pad_axis(y, 1, 1, 2);
            let y = g.narrow(y, 1, 0, 5);
            let a = g.mean_axis(y, 1);
            let b = g.sum_axis(y, 1);
            let c = g.concat(&[a, b], 0);
            let d = g.softmax_last(g.reshape(c, &[2, 6]));
            let e = g.maxpool_last(d, 2);
            let s = g.add_scalar(g.scale(e, 0.5), 0.25);
            g.mul_bcast_last(s, g.sqrt(g.abs(g.mean_axis(e, 0))))
        };
        let xa = randn(&[4, 6], 40);
        let xb = randn(&[4, 6], 41);
        let (plan, va, vb) = compile(&params, &xa, &xb, f).unwrap();
        let mut arena = PlanArena::new();
        assert_bits(&plan.execute(&params, &[xa], &mut arena), &va);
        assert_bits(&plan.execute(&params, &[xb], &mut arena), &vb);
    }

    #[test]
    fn constant_leaves_are_snapshotted_and_losses_rejected() {
        let params = Params(vec![]);
        let c = randn(&[5], 7);
        let f = |g: &Graph, x: Var, _p: &[Var]| g.add(x, g.input(c.clone()));
        let xa = randn(&[5], 50);
        let xb = randn(&[5], 51);
        let (plan, va, _) = compile(&params, &xa, &xb, f).unwrap();
        let mut arena = PlanArena::new();
        assert_bits(&plan.execute(&params, std::slice::from_ref(&xa), &mut arena), &va);

        // A loss op must fail with UnsupportedOp, not panic.
        let g = |gr: &Graph, x: Var, _p: &[Var]| gr.softmax_cross_entropy(x, &[0]);
        let xa2 = randn(&[1, 5], 52);
        let xb2 = randn(&[1, 5], 53);
        match compile(&params, &xa2, &xb2, g) {
            Err(PlanError::UnsupportedOp(_)) => {}
            other => panic!("expected UnsupportedOp, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn arena_is_reused_across_shapes_without_stale_bytes() {
        let params = Params(vec![randn(&[6, 6], 1).scale(0.4)]);
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let h = g.linear(x, p[0], None);
            g.mul(g.tanh(h), g.add_scalar(g.neg(h), 1.0))
        };
        let mut arena = PlanArena::new();
        // Alternate between a big and a small shape through ONE arena and
        // check against fresh tape eval each time.
        for rows in [8usize, 2, 8, 3] {
            let xa = randn(&[rows, 6], 60 + rows as u64);
            let xb = randn(&[rows, 6], 90 + rows as u64);
            let (plan, va, vb) = compile(&params, &xa, &xb, f).unwrap();
            assert_bits(&plan.execute(&params, &[xa], &mut arena), &va);
            assert_bits(&plan.execute(&params, &[xb], &mut arena), &vb);
        }
    }

    #[test]
    fn describe_lists_steps_fusions_and_arena() {
        let params = Params(vec![randn(&[4, 4], 1), randn(&[4, 2], 2)]);
        let f = |g: &Graph, x: Var, p: &[Var]| {
            let h = g.linear_gelu(x, p[0], None);
            g.linear(h, p[1], None)
        };
        let xa = randn(&[2, 4], 70);
        let xb = randn(&[2, 4], 71);
        let (plan, _, _) = compile(&params, &xa, &xb, f).unwrap();
        let d = plan.describe();
        assert!(d.contains("MlpBlock"), "{d}");
        assert!(d.contains("arena:"), "{d}");
        assert!(plan.arena_len() > 0);
        assert!(plan.num_steps() >= 1);
        assert_eq!(plan.input_shapes(), &[vec![2, 4]]);
    }
}
