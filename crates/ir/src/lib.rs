//! # arbalest-ir
//!
//! A small offload-program IR: the structured construct tree a static
//! analyzer needs and the runtime-constructed benchmarks do not have
//! (DESIGN.md §9's historical gap, closed by `arbalest lint`).
//!
//! A [`Program`] declares named buffers ([`BufferDecl`]) and a tree of
//! [`Node`]s mirroring the OpenMP device constructs the runtime offers:
//! `target` (with maps, `nowait`, `depend`), `target data` regions,
//! unstructured `enter`/`exit data`, `target update`, host code blocks,
//! and `taskwait`. The leaves are **may/must read/write sets** over
//! buffers and element-granular array sections ([`Access`]): a `Must`
//! access happens on every execution of the program, a `May` access is
//! data-dependent (conditional writes, unknown gather indices, inputs
//! whose initialisation cannot be decided statically).
//!
//! Beyond straight-line code, programs carry **control flow**
//! ([`Node::If`] regions joined by the analyzer, [`Node::Loop`] regions
//! widened to a fixpoint) and **symbolic bounds**: any section bound or
//! buffer length can be an affine [`Expr`] over declared program
//! parameters ([`ProgramBuilder::param`]), so one parametric model
//! covers every problem size. [`Program::concretize`] binds the
//! parameters, unrolls the loops, and resolves the branches, yielding a
//! plain straight-line program the [`interp`] module can execute on the
//! real offload runtime — the bridge the differential fuzzer
//! (`arbalest fuzz-lint`) is built on.
//!
//! Programs are hand-authored through [`ProgramBuilder`] and validated
//! against the runtime two ways (both enforced in `tests/`):
//!
//! * buffer declarations must match the runtime's registrations
//!   (name, element size, length), and
//! * replaying a recorded trace must touch no buffer/section outside
//!   the IR's may-sets — the IR is a *sound abstraction* of the
//!   program's behaviour, which is what makes `Must` diagnostics from
//!   the static checker trustworthy.

#![warn(missing_docs)]

pub mod expr;
pub mod generate;
pub mod interp;
pub mod patch;
pub mod rng;

use arbalest_offload::addr::DeviceId;
use arbalest_offload::mapping::MapType;
use arbalest_offload::sections;
use std::collections::BTreeMap;
use std::fmt;

pub use expr::{Expr, ParamDecl, ParamId, Trip, Var};

/// Index of a buffer declaration within its [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub u32);

/// Identifier of a `target` construct, for [`Node::Wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TargetId(pub u32);

/// An array section in element units. `Full` resolves to the whole
/// declared extent; `Elems` may deliberately exceed it (that is exactly
/// the wrong-array-section bug class DRACC seeds); `Sym` carries affine
/// symbolic bounds resolved by the static checker's interval arithmetic
/// or by [`Program::concretize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sect {
    /// The buffer's whole declared extent.
    Full,
    /// `buf[start : start+len]` in elements.
    Elems {
        /// First element.
        start: u64,
        /// Element count.
        len: u64,
    },
    /// `buf[start : start+len]` with affine symbolic bounds.
    Sym {
        /// First element.
        start: Expr,
        /// Element count.
        len: Expr,
    },
}

impl Sect {
    /// Resolve to a concrete element interval `[start, end)` against a
    /// declared length. `Full` is clamped to the declaration; `Elems` is
    /// not (the sum saturates instead of wrapping near `u64::MAX`); a
    /// symbolic section conservatively resolves to the whole extent —
    /// use [`Sect::resolve_sym`] or concretize first for precision.
    pub fn resolve(&self, decl_len: u64) -> (u64, u64) {
        match self {
            Sect::Full => (0, decl_len),
            Sect::Elems { start, len } => (*start, start.saturating_add(*len)),
            Sect::Sym { .. } => (0, decl_len),
        }
    }

    /// Resolve to a symbolic element interval `[start, end)` against a
    /// symbolic extent.
    pub fn resolve_sym(&self, extent: &Expr) -> (Expr, Expr) {
        match self {
            Sect::Full => (Expr::ZERO, extent.clone()),
            Sect::Elems { start, len } => {
                (Expr::lit(*start), Expr::lit(*start).add(&Expr::lit(*len)))
            }
            Sect::Sym { start, len } => (start.clone(), start.add(len)),
        }
    }

    /// Whether the section carries symbolic bounds.
    pub fn is_symbolic(&self) -> bool {
        matches!(self, Sect::Sym { .. })
    }

    /// Whether the section's bounds mention a loop induction variable.
    pub fn uses_iv(&self) -> bool {
        match self {
            Sect::Sym { start, len } => start.uses_iv() || len.uses_iv(),
            _ => false,
        }
    }
}

/// Whether a fact holds on every execution or only on some.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certainty {
    /// Holds on every execution.
    Must,
    /// Data-dependent: holds on some executions.
    May,
}

/// One read or write of a buffer section. Within a kernel or host block
/// the accesses are ordered (program order), so "write then read" scratch
/// patterns analyze correctly.
#[derive(Debug, Clone)]
pub struct Access {
    /// Accessed buffer.
    pub buf: BufId,
    /// Accessed section (element units).
    pub sect: Sect,
    /// Write (`true`) or read.
    pub is_write: bool,
    /// `Must` if the access happens on every execution.
    pub certainty: Certainty,
}

/// One `map` clause.
#[derive(Debug, Clone)]
pub struct MapClause {
    /// Mapped buffer.
    pub buf: BufId,
    /// OpenMP map-type (Table I semantics).
    pub map_type: MapType,
    /// Mapped section (element units).
    pub sect: Sect,
}

/// One `depend` clause on a `target ... nowait` construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DependClause {
    /// The dependence object (a buffer stands in for the C pointer).
    pub buf: BufId,
    /// `depend(out/inout)` vs `depend(in)`.
    pub is_write: bool,
}

/// A `target` construct.
#[derive(Debug, Clone)]
pub struct TargetNode {
    /// Identity, referenced by [`Node::Wait`].
    pub id: TargetId,
    /// Executing device.
    pub device: DeviceId,
    /// `nowait` clause present.
    pub nowait: bool,
    /// `depend` clauses.
    pub depends: Vec<DependClause>,
    /// `map` clauses.
    pub maps: Vec<MapClause>,
    /// Kernel body accesses, in program order.
    pub body: Vec<Access>,
}

/// A node of the construct tree.
#[derive(Debug, Clone)]
pub enum Node {
    /// `#pragma omp target ...` with a kernel body.
    Target(TargetNode),
    /// `#pragma omp target data map(...)` structured region.
    TargetData {
        /// Device owning the region's mappings.
        device: DeviceId,
        /// Region `map` clauses (entry and exit halves).
        maps: Vec<MapClause>,
        /// Constructs inside the region.
        body: Vec<Node>,
    },
    /// `#pragma omp target enter data map(...)`.
    EnterData {
        /// Target device.
        device: DeviceId,
        /// Entry `map` clauses.
        maps: Vec<MapClause>,
    },
    /// `#pragma omp target exit data map(...)`.
    ExitData {
        /// Target device.
        device: DeviceId,
        /// Exit `map` clauses.
        maps: Vec<MapClause>,
    },
    /// `#pragma omp target update to(...)` / `from(...)`. The transferred
    /// section is the present-table entry's (runtime semantics).
    Update {
        /// Device whose CV is the transfer endpoint.
        device: DeviceId,
        /// `update to` (OV → CV) vs `update from` (CV → OV).
        to_device: bool,
        /// Updated buffer.
        buf: BufId,
    },
    /// Host code: one ordered access.
    Host(Access),
    /// `#pragma omp taskwait`: joins all pending `nowait` constructs.
    Taskwait,
    /// Wait on one `nowait` target's completion handle.
    Wait {
        /// The awaited construct.
        target: TargetId,
    },
    /// A two-armed branch. The analyzer analyses both arms from the same
    /// entry state and joins them at the merge point (demoting facts that
    /// differ to `May`); `concretize` resolves the branch from the
    /// binding's choice seed.
    If {
        /// `true` when the condition is data-dependent (unknowable even
        /// with all parameters bound); `false` when it is determined by
        /// program parameters. Either way the static analyzer must join
        /// both arms.
        may_taken: bool,
        /// Constructs of the taken arm.
        then_: Vec<Node>,
        /// Constructs of the not-taken arm (often empty).
        else_: Vec<Node>,
    },
    /// A counted loop: the body executes `trip` times with the innermost
    /// induction variable ([`Expr::iv`]) running `0 .. trip`. The
    /// analyzer widens the body to a fixpoint; `concretize` unrolls it.
    Loop {
        /// Trip count (affine in parameters and any outer iv).
        trip: Trip,
        /// Loop body constructs.
        body: Vec<Node>,
    },
}

/// A named buffer and what is known about its initial (host) contents.
#[derive(Debug, Clone)]
pub struct BufferDecl {
    /// Runtime registration name.
    pub name: String,
    /// Element size in bytes.
    pub elem_size: u64,
    /// Length in elements. For a symbolically-sized buffer this holds the
    /// smallest admissible length (the true length is `sym_len`);
    /// [`Program::concretize`] replaces it with the bound value.
    pub len: u64,
    /// Symbolic length, when the buffer is parameter-sized.
    pub sym_len: Option<Expr>,
    /// Host initialisation before the first construct: `None` when the
    /// program never initialises the OV, `(Must, sect)` for a definite
    /// initialising loop, `(May, sect)` when initialisation is
    /// data-dependent (e.g. read from an input file) — the case §VI-G
    /// says a static tool cannot decide.
    pub host_init: Option<(Certainty, Sect)>,
}

impl BufferDecl {
    /// Declared size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.elem_size * self.len
    }

    /// The length as a symbolic expression (exact even when the buffer
    /// is parameter-sized).
    pub fn extent(&self) -> Expr {
        self.sym_len.clone().unwrap_or_else(|| Expr::lit(self.len))
    }
}

/// A typed IR construction/evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A `target data` (or `if`/`loop`) scope was left open at `build`.
    UnclosedScope,
    /// A concrete section's `start + len` overflows `u64` — the interval
    /// cannot be represented, so the program is rejected instead of
    /// silently wrapping.
    SectionOutOfRange {
        /// Offending buffer name.
        buffer: String,
        /// Section start (elements).
        start: u64,
        /// Section length (elements).
        len: u64,
    },
    /// An expression references a parameter that is not declared (or not
    /// bound, during concretization).
    UnboundParam {
        /// Parameter name (or `p<idx>` when undeclared).
        name: String,
    },
    /// An expression uses the loop induction variable outside any loop.
    IvOutsideLoop {
        /// Where the iv appeared.
        context: String,
    },
    /// A binding value lies outside the parameter's declared range.
    OutOfRangeBinding {
        /// Parameter name.
        name: String,
        /// The offending value.
        value: u64,
    },
    /// A symbolic bound evaluates negative or beyond `u64`.
    EvalOutOfRange {
        /// Human-readable description of the offending expression.
        detail: String,
    },
    /// A `wait` references a target that was never emitted before it.
    DanglingWait,
    /// A loop trip count exceeds the concretization cap.
    TripTooLarge {
        /// The evaluated trip count.
        trip: u64,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnclosedScope => write!(f, "unclosed target data scope"),
            IrError::SectionOutOfRange { buffer, start, len } => {
                write!(f, "section [{start}, +{len}) of '{buffer}' overflows the element space")
            }
            IrError::UnboundParam { name } => write!(f, "parameter '{name}' is not bound"),
            IrError::IvOutsideLoop { context } => {
                write!(f, "induction variable used outside a loop ({context})")
            }
            IrError::OutOfRangeBinding { name, value } => {
                write!(f, "binding {name}={value} lies outside the declared parameter range")
            }
            IrError::EvalOutOfRange { detail } => {
                write!(f, "symbolic bound evaluates out of range: {detail}")
            }
            IrError::DanglingWait => write!(f, "wait on a target that was never emitted"),
            IrError::TripTooLarge { trip } => {
                write!(f, "loop trip count {trip} exceeds the concretization cap")
            }
        }
    }
}

impl std::error::Error for IrError {}

/// A valuation of program parameters plus a seed for resolving
/// data-dependent choices (`If` arms, `May` accesses) during
/// concretization and interpretation.
#[derive(Debug, Clone, Default)]
pub struct Binding {
    values: Vec<Option<u64>>,
    /// Seed driving branch/may-access resolution.
    pub choice_seed: u64,
}

impl Binding {
    /// An empty binding.
    pub fn new() -> Self {
        Binding::default()
    }

    /// Bind a parameter (builder style).
    #[must_use]
    pub fn set(mut self, p: ParamId, v: u64) -> Self {
        let idx = p.0 as usize;
        if self.values.len() <= idx {
            self.values.resize(idx + 1, None);
        }
        self.values[idx] = Some(v);
        self
    }

    /// Set the choice seed (builder style).
    #[must_use]
    pub fn with_choices(mut self, seed: u64) -> Self {
        self.choice_seed = seed;
        self
    }

    /// The bound value of a parameter, if any.
    pub fn get(&self, p: ParamId) -> Option<u64> {
        self.values.get(p.0 as usize).copied().flatten()
    }
}

/// An offload program: parameters, buffer declarations, and the
/// construct tree.
#[derive(Debug, Clone)]
pub struct Program {
    /// Program name (`DRACC_OMP_0NN` or a workload name).
    pub name: String,
    /// Declared parameters; [`ParamId`] indexes this.
    pub params: Vec<ParamDecl>,
    /// Buffer declarations; [`BufId`] indexes this.
    pub buffers: Vec<BufferDecl>,
    /// Top-level constructs, in program order.
    pub nodes: Vec<Node>,
}

/// Concretization refuses to unroll loops past this many iterations.
const MAX_TRIP: u64 = 4096;

impl Program {
    /// The declaration behind a [`BufId`].
    pub fn decl(&self, b: BufId) -> &BufferDecl {
        &self.buffers[b.0 as usize]
    }

    /// Look a buffer up by its registration name.
    pub fn buf_by_name(&self, name: &str) -> Option<BufId> {
        self.buffers.iter().position(|d| d.name == name).map(|i| BufId(i as u32))
    }

    /// Visit every node of the tree in program order, descending into
    /// `target data` regions, branch arms, and loop bodies.
    pub fn walk(&self, f: &mut impl FnMut(&Node)) {
        fn rec(nodes: &[Node], f: &mut impl FnMut(&Node)) {
            for n in nodes {
                f(n);
                match n {
                    Node::TargetData { body, .. } | Node::Loop { body, .. } => rec(body, f),
                    Node::If { then_, else_, .. } => {
                        rec(then_, f);
                        rec(else_, f);
                    }
                    _ => {}
                }
            }
        }
        rec(&self.nodes, f);
    }

    /// Whether the program is fully concrete: no parameters, no control
    /// flow, no symbolic sections or lengths. Only concrete programs can
    /// be interpreted directly.
    pub fn is_concrete(&self) -> bool {
        if !self.params.is_empty() || self.buffers.iter().any(|d| d.sym_len.is_some()) {
            return false;
        }
        if self
            .buffers
            .iter()
            .any(|d| matches!(&d.host_init, Some((_, s)) if s.is_symbolic()))
        {
            return false;
        }
        let mut concrete = true;
        self.walk(&mut |n| match n {
            Node::If { .. } | Node::Loop { .. } => concrete = false,
            Node::Target(t) => {
                concrete &= t.maps.iter().all(|m| !m.sect.is_symbolic())
                    && t.body.iter().all(|a| !a.sect.is_symbolic());
            }
            Node::TargetData { maps, .. } | Node::EnterData { maps, .. } | Node::ExitData { maps, .. } => {
                concrete &= maps.iter().all(|m| !m.sect.is_symbolic());
            }
            Node::Host(a) => concrete &= !a.sect.is_symbolic(),
            _ => {}
        });
        concrete
    }

    /// The may-cover of a buffer: every byte interval the program may
    /// read (`want_write == false`) or write, as sorted, merged
    /// `[lo, hi)` byte ranges relative to the OV base. Host
    /// initialisation counts as a write. Sections are clamped to the
    /// declared extent (a benchmark that *maps* beyond the extent still
    /// only ever accesses real elements). Symbolic sections widen to the
    /// whole extent — call this on concrete programs for precision.
    pub fn may_cover(&self, name: &str, want_write: bool) -> Vec<(u64, u64)> {
        let Some(id) = self.buf_by_name(name) else { return Vec::new() };
        let decl = self.decl(id);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let mut add = |sect: &Sect| {
            let (s, e) = sect.resolve(decl.len);
            let (s, e) = (s.min(decl.len), e.min(decl.len));
            if s < e {
                ranges.push((s * decl.elem_size, e * decl.elem_size));
            }
        };
        if want_write {
            if let Some((_, sect)) = &decl.host_init {
                add(sect);
            }
        }
        self.walk(&mut |n| {
            let body: &[Access] = match n {
                Node::Target(t) => &t.body,
                Node::Host(a) => std::slice::from_ref(a),
                _ => &[],
            };
            for a in body {
                if a.buf == id && a.is_write == want_write {
                    add(&a.sect);
                }
            }
        });
        sections::normalize(&mut ranges);
        ranges
    }

    /// Whether `[byte_lo, byte_hi)` of `name` lies entirely inside the
    /// program's may-cover for reads/writes.
    pub fn covers(&self, name: &str, want_write: bool, byte_lo: u64, byte_hi: u64) -> bool {
        sections::covered_by(&self.may_cover(name, want_write), byte_lo, byte_hi)
    }

    /// Bind every parameter, unroll every loop, and resolve every branch,
    /// yielding a fully concrete program (same name, renumbered target
    /// ids). Branch arms and nothing else consume the binding's choice
    /// seed, so equal seeds resolve equal control flow.
    pub fn concretize(&self, binding: &Binding) -> Result<Program, IrError> {
        for (i, d) in self.params.iter().enumerate() {
            let v = binding
                .get(ParamId(i as u32))
                .ok_or_else(|| IrError::UnboundParam { name: d.name.clone() })?;
            if v < d.min || d.max.is_some_and(|m| v > m) {
                return Err(IrError::OutOfRangeBinding { name: d.name.clone(), value: v });
            }
        }
        let mut cz = Concretizer {
            p: self,
            b: binding,
            rng: rng::SplitMix64::new(binding.choice_seed),
            iv: Vec::new(),
            idmap: BTreeMap::new(),
            next_target: 0,
        };
        let mut buffers = Vec::with_capacity(self.buffers.len());
        for d in &self.buffers {
            let len = match &d.sym_len {
                Some(e) => cz.eval(e, "buffer length")?,
                None => d.len,
            };
            let host_init = match &d.host_init {
                Some((c, s)) => Some((*c, cz.sect(s, &d.name)?)),
                None => None,
            };
            buffers.push(BufferDecl {
                name: d.name.clone(),
                elem_size: d.elem_size,
                len,
                sym_len: None,
                host_init,
            });
        }
        let mut nodes = Vec::new();
        cz.nodes(&self.nodes, &mut nodes)?;
        Ok(Program { name: self.name.clone(), params: Vec::new(), buffers, nodes })
    }
}

/// Recursive state of [`Program::concretize`].
struct Concretizer<'a> {
    p: &'a Program,
    b: &'a Binding,
    rng: rng::SplitMix64,
    iv: Vec<u64>,
    idmap: BTreeMap<u32, u32>,
    next_target: u32,
}

impl Concretizer<'_> {
    fn eval(&self, e: &Expr, what: &str) -> Result<u64, IrError> {
        if e.uses_iv() && self.iv.is_empty() {
            return Err(IrError::IvOutsideLoop { context: what.to_string() });
        }
        let v = e.eval(&|p| self.b.get(p), self.iv.last().copied()).ok_or_else(|| {
            let name = e
                .params_used()
                .find(|p| self.b.get(*p).is_none())
                .and_then(|p| self.p.params.get(p.0 as usize))
                .map(|d| d.name.clone())
                .unwrap_or_else(|| "?".to_string());
            IrError::UnboundParam { name }
        })?;
        u64::try_from(v)
            .map_err(|_| IrError::EvalOutOfRange { detail: format!("{what}: {e} = {v}") })
    }

    fn sect(&self, s: &Sect, buffer: &str) -> Result<Sect, IrError> {
        match s {
            Sect::Sym { start, len } => {
                let start = self.eval(start, buffer)?;
                let len = self.eval(len, buffer)?;
                if start.checked_add(len).is_none() {
                    return Err(IrError::SectionOutOfRange { buffer: buffer.into(), start, len });
                }
                Ok(Sect::Elems { start, len })
            }
            other => Ok(other.clone()),
        }
    }

    fn maps(&self, maps: &[MapClause]) -> Result<Vec<MapClause>, IrError> {
        maps.iter()
            .map(|m| {
                Ok(MapClause {
                    buf: m.buf,
                    map_type: m.map_type,
                    sect: self.sect(&m.sect, &self.p.decl(m.buf).name)?,
                })
            })
            .collect()
    }

    fn accesses(&self, body: &[Access]) -> Result<Vec<Access>, IrError> {
        body.iter()
            .map(|a| {
                Ok(Access {
                    buf: a.buf,
                    sect: self.sect(&a.sect, &self.p.decl(a.buf).name)?,
                    is_write: a.is_write,
                    certainty: a.certainty,
                })
            })
            .collect()
    }

    fn nodes(&mut self, nodes: &[Node], out: &mut Vec<Node>) -> Result<(), IrError> {
        for n in nodes {
            match n {
                Node::Target(t) => {
                    let id = TargetId(self.next_target);
                    self.next_target += 1;
                    self.idmap.insert(t.id.0, id.0);
                    out.push(Node::Target(TargetNode {
                        id,
                        device: t.device,
                        nowait: t.nowait,
                        depends: t.depends.clone(),
                        maps: self.maps(&t.maps)?,
                        body: self.accesses(&t.body)?,
                    }));
                }
                Node::TargetData { device, maps, body } => {
                    let maps = self.maps(maps)?;
                    let mut inner = Vec::new();
                    self.nodes(body, &mut inner)?;
                    out.push(Node::TargetData { device: *device, maps, body: inner });
                }
                Node::EnterData { device, maps } => {
                    out.push(Node::EnterData { device: *device, maps: self.maps(maps)? });
                }
                Node::ExitData { device, maps } => {
                    out.push(Node::ExitData { device: *device, maps: self.maps(maps)? });
                }
                Node::Update { device, to_device, buf } => {
                    out.push(Node::Update { device: *device, to_device: *to_device, buf: *buf });
                }
                Node::Host(a) => {
                    out.push(Node::Host(self.accesses(std::slice::from_ref(a))?.pop().unwrap()));
                }
                Node::Taskwait => out.push(Node::Taskwait),
                Node::Wait { target } => {
                    let id = *self.idmap.get(&target.0).ok_or(IrError::DanglingWait)?;
                    out.push(Node::Wait { target: TargetId(id) });
                }
                Node::If { then_, else_, .. } => {
                    let take_then = self.rng.next_u64() & 1 == 0;
                    let arm = if take_then { then_ } else { else_ };
                    self.nodes(arm, out)?;
                }
                Node::Loop { trip, body } => {
                    let n = self.eval(&trip.0, "trip count")?;
                    if n > MAX_TRIP {
                        return Err(IrError::TripTooLarge { trip: n });
                    }
                    for i in 0..n {
                        self.iv.push(i);
                        let r = self.nodes(body, out);
                        self.iv.pop();
                        r?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`Program`]s. Construct nesting (`target data` scopes,
/// loops, branches) is expressed with closures; see the crate tests for
/// the idiom.
pub struct ProgramBuilder {
    name: String,
    params: Vec<ParamDecl>,
    buffers: Vec<BufferDecl>,
    frames: Vec<Vec<Node>>,
    next_target: u32,
}

impl ProgramBuilder {
    /// Start a program.
    pub fn new(name: &str) -> Self {
        ProgramBuilder {
            name: name.to_string(),
            params: Vec::new(),
            buffers: Vec::new(),
            frames: vec![Vec::new()],
            next_target: 0,
        }
    }

    /// Declare a program parameter with its admissible range
    /// (`max == None` for unbounded above).
    pub fn param(&mut self, name: &str, min: u64, max: Option<u64>) -> ParamId {
        let id = ParamId(self.params.len() as u32);
        self.params.push(ParamDecl { name: name.to_string(), min, max });
        id
    }

    fn push(&mut self, node: Node) {
        self.frames.last_mut().expect("frame stack never empty").push(node);
    }

    fn add_buffer(
        &mut self,
        name: &str,
        elem_size: u64,
        len: u64,
        sym_len: Option<Expr>,
        host_init: Option<(Certainty, Sect)>,
    ) -> BufId {
        let id = BufId(self.buffers.len() as u32);
        self.buffers
            .push(BufferDecl { name: name.to_string(), elem_size, len, sym_len, host_init });
        id
    }

    /// Declare an uninitialised buffer (`rt.alloc`).
    pub fn buffer(&mut self, name: &str, elem_size: u64, len: u64) -> BufId {
        self.add_buffer(name, elem_size, len, None, None)
    }

    /// Declare a fully host-initialised buffer (`rt.alloc_with` /
    /// `alloc_init`).
    pub fn buffer_init(&mut self, name: &str, elem_size: u64, len: u64) -> BufId {
        self.add_buffer(name, elem_size, len, None, Some((Certainty::Must, Sect::Full)))
    }

    /// Declare a buffer whose host initialisation is data-dependent.
    pub fn buffer_init_may(&mut self, name: &str, elem_size: u64, len: u64) -> BufId {
        self.add_buffer(name, elem_size, len, None, Some((Certainty::May, Sect::Full)))
    }

    /// Declare an uninitialised buffer with a symbolic length.
    pub fn buffer_sym(&mut self, name: &str, elem_size: u64, len: Expr) -> BufId {
        let min = len.range(&self.params, None).0.unwrap_or(0).max(0) as u64;
        self.add_buffer(name, elem_size, min, Some(len), None)
    }

    /// Declare a fully host-initialised buffer with a symbolic length.
    pub fn buffer_init_sym(&mut self, name: &str, elem_size: u64, len: Expr) -> BufId {
        let min = len.range(&self.params, None).0.unwrap_or(0).max(0) as u64;
        self.add_buffer(name, elem_size, min, Some(len), Some((Certainty::Must, Sect::Full)))
    }

    /// Open a `target` construct.
    pub fn target(&mut self) -> TargetBuilder<'_> {
        let id = TargetId(self.next_target);
        self.next_target += 1;
        TargetBuilder {
            p: self,
            node: TargetNode {
                id,
                device: DeviceId::ACCEL0,
                nowait: false,
                depends: Vec::new(),
                maps: Vec::new(),
                body: Vec::new(),
            },
        }
    }

    /// Open a `target data` region.
    pub fn data(&mut self) -> DataBuilder<'_> {
        DataBuilder { p: self, device: DeviceId::ACCEL0, maps: Vec::new() }
    }

    /// `target enter data`.
    pub fn enter_data(&mut self, maps: Vec<MapClause>) {
        self.push(Node::EnterData { device: DeviceId::ACCEL0, maps });
    }

    /// `target exit data`.
    pub fn exit_data(&mut self, maps: Vec<MapClause>) {
        self.push(Node::ExitData { device: DeviceId::ACCEL0, maps });
    }

    /// `target update to(buf)`.
    pub fn update_to(&mut self, buf: BufId) {
        self.push(Node::Update { device: DeviceId::ACCEL0, to_device: true, buf });
    }

    /// `target update from(buf)`.
    pub fn update_from(&mut self, buf: BufId) {
        self.push(Node::Update { device: DeviceId::ACCEL0, to_device: false, buf });
    }

    /// Host read of the whole buffer.
    pub fn host_read(&mut self, buf: BufId) {
        self.host_access(buf, Sect::Full, false, Certainty::Must);
    }

    /// Host read of a section.
    pub fn host_read_sec(&mut self, buf: BufId, start: u64, len: u64) {
        self.host_access(buf, Sect::Elems { start, len }, false, Certainty::Must);
    }

    /// Host write of the whole buffer.
    pub fn host_write(&mut self, buf: BufId) {
        self.host_access(buf, Sect::Full, true, Certainty::Must);
    }

    /// Host write of a section.
    pub fn host_write_sec(&mut self, buf: BufId, start: u64, len: u64) {
        self.host_access(buf, Sect::Elems { start, len }, true, Certainty::Must);
    }

    /// Data-dependent host write (may or may not happen).
    pub fn host_may_write(&mut self, buf: BufId) {
        self.host_access(buf, Sect::Full, true, Certainty::May);
    }

    fn host_access(&mut self, buf: BufId, sect: Sect, is_write: bool, certainty: Certainty) {
        self.push(Node::Host(Access { buf, sect, is_write, certainty }));
    }

    /// `taskwait`.
    pub fn taskwait(&mut self) {
        self.push(Node::Taskwait);
    }

    /// Wait on a `nowait` target's handle.
    pub fn wait(&mut self, target: TargetId) {
        self.push(Node::Wait { target });
    }

    /// A counted loop region: the closure builds the body, which
    /// executes `trip` times with [`Expr::iv`] running `0 .. trip`.
    pub fn loop_(&mut self, trip: Trip, f: impl FnOnce(&mut ProgramBuilder)) {
        self.frames.push(Vec::new());
        f(self);
        let body = self.frames.pop().expect("loop frame");
        self.push(Node::Loop { trip, body });
    }

    /// A counted loop with a concrete trip count.
    pub fn loop_n(&mut self, n: u64, f: impl FnOnce(&mut ProgramBuilder)) {
        self.loop_(Trip::lit(n), f);
    }

    /// A two-armed branch region; see [`Node::If`].
    pub fn if_(
        &mut self,
        may_taken: bool,
        then_f: impl FnOnce(&mut ProgramBuilder),
        else_f: impl FnOnce(&mut ProgramBuilder),
    ) {
        self.frames.push(Vec::new());
        then_f(self);
        let then_ = self.frames.pop().expect("if frame");
        self.frames.push(Vec::new());
        else_f(self);
        let else_ = self.frames.pop().expect("if frame");
        self.push(Node::If { may_taken, then_, else_ });
    }

    /// Finish; panics on a malformed program (unclosed scopes, sections
    /// whose `start + len` overflows, iv use outside a loop). Use
    /// [`ProgramBuilder::try_build`] for a typed error.
    pub fn build(self) -> Program {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Finish, surfacing malformations as a typed [`IrError`].
    pub fn try_build(self) -> Result<Program, IrError> {
        if self.frames.len() != 1 {
            return Err(IrError::UnclosedScope);
        }
        let mut frames = self.frames;
        let p = Program {
            name: self.name,
            params: self.params,
            buffers: self.buffers,
            nodes: frames.pop().unwrap(),
        };
        validate(&p)?;
        Ok(p)
    }
}

/// Structural validation behind [`ProgramBuilder::try_build`].
fn validate(p: &Program) -> Result<(), IrError> {
    fn check_expr(e: &Expr, p: &Program, in_loop: bool, what: &str) -> Result<(), IrError> {
        if e.uses_iv() && !in_loop {
            return Err(IrError::IvOutsideLoop { context: what.to_string() });
        }
        for pid in e.params_used() {
            if pid.0 as usize >= p.params.len() {
                return Err(IrError::UnboundParam { name: format!("p{}", pid.0) });
            }
        }
        Ok(())
    }
    fn check_sect(s: &Sect, buffer: &str, p: &Program, in_loop: bool) -> Result<(), IrError> {
        match s {
            Sect::Full => Ok(()),
            Sect::Elems { start, len } => match start.checked_add(*len) {
                Some(_) => Ok(()),
                None => Err(IrError::SectionOutOfRange {
                    buffer: buffer.to_string(),
                    start: *start,
                    len: *len,
                }),
            },
            Sect::Sym { start, len } => {
                check_expr(start, p, in_loop, buffer)?;
                check_expr(len, p, in_loop, buffer)
            }
        }
    }
    fn check_nodes(nodes: &[Node], p: &Program, in_loop: bool) -> Result<(), IrError> {
        for n in nodes {
            match n {
                Node::Target(t) => {
                    for m in &t.maps {
                        check_sect(&m.sect, &p.decl(m.buf).name, p, in_loop)?;
                    }
                    for a in &t.body {
                        check_sect(&a.sect, &p.decl(a.buf).name, p, in_loop)?;
                    }
                }
                Node::TargetData { maps, body, .. } => {
                    for m in maps {
                        check_sect(&m.sect, &p.decl(m.buf).name, p, in_loop)?;
                    }
                    check_nodes(body, p, in_loop)?;
                }
                Node::EnterData { maps, .. } | Node::ExitData { maps, .. } => {
                    for m in maps {
                        check_sect(&m.sect, &p.decl(m.buf).name, p, in_loop)?;
                    }
                }
                Node::Host(a) => check_sect(&a.sect, &p.decl(a.buf).name, p, in_loop)?,
                Node::If { then_, else_, .. } => {
                    check_nodes(then_, p, in_loop)?;
                    check_nodes(else_, p, in_loop)?;
                }
                Node::Loop { trip, body } => {
                    check_expr(&trip.0, p, in_loop, "trip count")?;
                    check_nodes(body, p, true)?;
                }
                _ => {}
            }
        }
        Ok(())
    }
    for d in &p.buffers {
        if let Some(e) = &d.sym_len {
            check_expr(e, p, false, &d.name)?;
        }
        if let Some((_, s)) = &d.host_init {
            check_sect(s, &d.name, p, false)?;
        }
    }
    check_nodes(&p.nodes, p, false)
}

/// Map-clause constructors shared by the construct builders.
macro_rules! map_methods {
    () => {
        /// `map(to: buf)`.
        pub fn map_to(self, buf: BufId) -> Self {
            self.add_map(buf, MapType::To, Sect::Full)
        }
        /// `map(from: buf)`.
        pub fn map_from(self, buf: BufId) -> Self {
            self.add_map(buf, MapType::From, Sect::Full)
        }
        /// `map(tofrom: buf)`.
        pub fn map_tofrom(self, buf: BufId) -> Self {
            self.add_map(buf, MapType::ToFrom, Sect::Full)
        }
        /// `map(alloc: buf)`.
        pub fn map_alloc(self, buf: BufId) -> Self {
            self.add_map(buf, MapType::Alloc, Sect::Full)
        }
        /// `map(to: buf[start:len])`.
        pub fn map_to_sec(self, buf: BufId, start: u64, len: u64) -> Self {
            self.add_map(buf, MapType::To, Sect::Elems { start, len })
        }
        /// `map(from: buf[start:len])`.
        pub fn map_from_sec(self, buf: BufId, start: u64, len: u64) -> Self {
            self.add_map(buf, MapType::From, Sect::Elems { start, len })
        }
        /// `map(tofrom: buf[start:len])`.
        pub fn map_tofrom_sec(self, buf: BufId, start: u64, len: u64) -> Self {
            self.add_map(buf, MapType::ToFrom, Sect::Elems { start, len })
        }
        /// `map(alloc: buf[start:len])`.
        pub fn map_alloc_sec(self, buf: BufId, start: u64, len: u64) -> Self {
            self.add_map(buf, MapType::Alloc, Sect::Elems { start, len })
        }
        /// A map clause with symbolic section bounds.
        pub fn map_sym(self, buf: BufId, map_type: MapType, start: Expr, len: Expr) -> Self {
            self.add_map(buf, map_type, Sect::Sym { start, len })
        }
    };
}

/// Builds one `target` construct; finish with [`TargetBuilder::done`].
pub struct TargetBuilder<'a> {
    p: &'a mut ProgramBuilder,
    node: TargetNode,
}

impl TargetBuilder<'_> {
    fn add_map(mut self, buf: BufId, map_type: MapType, sect: Sect) -> Self {
        self.node.maps.push(MapClause { buf, map_type, sect });
        self
    }

    map_methods!();

    /// Execute on a specific device (default `ACCEL0`).
    pub fn on_device(mut self, device: DeviceId) -> Self {
        self.node.device = device;
        self
    }

    /// Add the `nowait` clause.
    pub fn nowait(mut self) -> Self {
        self.node.nowait = true;
        self
    }

    /// `depend(in: buf)`.
    pub fn depend_read(mut self, buf: BufId) -> Self {
        self.node.depends.push(DependClause { buf, is_write: false });
        self
    }

    /// `depend(out: buf)` / `depend(inout: buf)`.
    pub fn depend_write(mut self, buf: BufId) -> Self {
        self.node.depends.push(DependClause { buf, is_write: true });
        self
    }

    fn access(mut self, buf: BufId, sect: Sect, is_write: bool, certainty: Certainty) -> Self {
        self.node.body.push(Access { buf, sect, is_write, certainty });
        self
    }

    /// Kernel reads the whole buffer on every execution.
    pub fn reads(self, buf: BufId) -> Self {
        self.access(buf, Sect::Full, false, Certainty::Must)
    }

    /// Kernel must-reads a section.
    pub fn reads_sec(self, buf: BufId, start: u64, len: u64) -> Self {
        self.access(buf, Sect::Elems { start, len }, false, Certainty::Must)
    }

    /// Kernel must-reads a symbolic section.
    pub fn reads_sym(self, buf: BufId, start: Expr, len: Expr) -> Self {
        self.access(buf, Sect::Sym { start, len }, false, Certainty::Must)
    }

    /// Kernel may-reads the whole buffer (data-dependent indices).
    pub fn may_reads(self, buf: BufId) -> Self {
        self.access(buf, Sect::Full, false, Certainty::May)
    }

    /// Kernel writes the whole buffer on every execution.
    pub fn writes(self, buf: BufId) -> Self {
        self.access(buf, Sect::Full, true, Certainty::Must)
    }

    /// Kernel must-writes a section.
    pub fn writes_sec(self, buf: BufId, start: u64, len: u64) -> Self {
        self.access(buf, Sect::Elems { start, len }, true, Certainty::Must)
    }

    /// Kernel may-writes the whole buffer (data-dependent indices).
    pub fn may_writes(self, buf: BufId) -> Self {
        self.access(buf, Sect::Full, true, Certainty::May)
    }

    /// Close the construct, returning its id (for [`ProgramBuilder::wait`]).
    pub fn done(self) -> TargetId {
        let id = self.node.id;
        let node = Node::Target(self.node);
        self.p.push(node);
        id
    }
}

/// Builds one `target data` region; finish with [`DataBuilder::scope`].
pub struct DataBuilder<'a> {
    p: &'a mut ProgramBuilder,
    device: DeviceId,
    maps: Vec<MapClause>,
}

impl DataBuilder<'_> {
    fn add_map(mut self, buf: BufId, map_type: MapType, sect: Sect) -> Self {
        self.maps.push(MapClause { buf, map_type, sect });
        self
    }

    map_methods!();

    /// Run the region body, then emit the region node.
    pub fn scope(self, f: impl FnOnce(&mut ProgramBuilder)) {
        let DataBuilder { p, device, maps } = self;
        p.frames.push(Vec::new());
        f(p);
        let body = p.frames.pop().expect("scope frame");
        p.push(Node::TargetData { device, maps, body });
    }
}

#[cfg(test)]
impl Program {
    /// Test helper: the symbolic `[start, start+len)` interval.
    fn nodes_sym_interval(&self, start: &Expr, len: &Expr, _extent: &Expr) -> (Expr, Expr) {
        (start.clone(), start.add(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        let mut p = ProgramBuilder::new("sample");
        let a = p.buffer_init("a", 8, 16);
        let out = p.buffer("out", 8, 16);
        p.data().map_to(a).map_from(out).scope(|p| {
            p.target().map_to(a).map_from(out).reads(a).writes(out).done();
        });
        p.host_read_sec(out, 0, 1);
        p.build()
    }

    #[test]
    fn builder_produces_the_expected_tree() {
        let prog = sample();
        assert_eq!(prog.buffers.len(), 2);
        assert_eq!(prog.nodes.len(), 2);
        let Node::TargetData { body, maps, .. } = &prog.nodes[0] else {
            panic!("expected a data region")
        };
        assert_eq!(maps.len(), 2);
        assert_eq!(body.len(), 1);
        let Node::Target(t) = &body[0] else { panic!("expected a target") };
        assert_eq!(t.body.len(), 2);
        assert!(!t.body[0].is_write && t.body[1].is_write);
    }

    #[test]
    fn may_cover_includes_host_init_and_merges() {
        let prog = sample();
        // `a` is host-initialised (write) and kernel-read.
        assert_eq!(prog.may_cover("a", true), vec![(0, 128)]);
        assert_eq!(prog.may_cover("a", false), vec![(0, 128)]);
        // `out` is kernel-written and host-read only in [0, 8).
        assert_eq!(prog.may_cover("out", false), vec![(0, 8)]);
        assert!(prog.covers("out", true, 0, 128));
        assert!(!prog.covers("out", false, 8, 16));
    }

    #[test]
    fn oversized_sections_clamp_in_covers() {
        let mut p = ProgramBuilder::new("bo");
        let a = p.buffer_init("a", 8, 16);
        p.target().map_to_sec(a, 0, 24).reads(a).done();
        let prog = p.build();
        // The cover never exceeds the declared extent.
        assert_eq!(prog.may_cover("a", false), vec![(0, 128)]);
    }

    #[test]
    fn sect_resolution() {
        assert_eq!(Sect::Full.resolve(10), (0, 10));
        assert_eq!(Sect::Elems { start: 4, len: 10 }.resolve(10), (4, 14));
        // near-u64::MAX sums saturate instead of wrapping
        assert_eq!(
            Sect::Elems { start: u64::MAX - 2, len: 8 }.resolve(10),
            (u64::MAX - 2, u64::MAX)
        );
        // zero-length sections resolve empty
        assert_eq!(Sect::Elems { start: 5, len: 0 }.resolve(10), (5, 5));
    }

    #[test]
    fn overflowing_section_is_a_typed_build_error() {
        let mut p = ProgramBuilder::new("bad-sect");
        let a = p.buffer("a", 8, 16);
        p.target().map_to_sec(a, u64::MAX - 2, 8).reads(a).done();
        let err = p.try_build().unwrap_err();
        assert_eq!(
            err,
            IrError::SectionOutOfRange { buffer: "a".into(), start: u64::MAX - 2, len: 8 }
        );
    }

    #[test]
    fn walk_descends_into_data_regions() {
        let prog = sample();
        let mut targets = 0;
        prog.walk(&mut |n| {
            if matches!(n, Node::Target(_)) {
                targets += 1;
            }
        });
        assert_eq!(targets, 1);
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unbalanced_scope_panics() {
        let mut p = ProgramBuilder::new("bad");
        p.frames.push(Vec::new());
        p.build();
    }

    fn symbolic_sample() -> (Program, ParamId) {
        let mut p = ProgramBuilder::new("sym");
        let n = p.param("n", 1, Some(64));
        let a = p.buffer_init_sym("a", 8, Expr::param(n));
        p.loop_(Trip(Expr::param(n)), |p| {
            p.target().map_tofrom(a).reads(a).writes(a).done();
        });
        p.host_read(a);
        p.taskwait();
        (p.build(), n)
    }

    #[test]
    fn concretize_unrolls_loops_and_renumbers_targets() {
        let (prog, n) = symbolic_sample();
        assert!(!prog.is_concrete());
        let conc = prog.concretize(&Binding::new().set(n, 3)).expect("concretize");
        assert!(conc.is_concrete());
        assert_eq!(conc.buffers[0].len, 3);
        let mut ids = Vec::new();
        conc.walk(&mut |node| {
            if let Node::Target(t) = node {
                ids.push(t.id.0);
            }
        });
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn concretize_requires_bound_params_in_range() {
        let (prog, n) = symbolic_sample();
        assert!(matches!(
            prog.concretize(&Binding::new()),
            Err(IrError::UnboundParam { .. })
        ));
        assert!(matches!(
            prog.concretize(&Binding::new().set(n, 65)),
            Err(IrError::OutOfRangeBinding { .. })
        ));
    }

    #[test]
    fn if_resolution_is_deterministic_in_the_seed() {
        let mut p = ProgramBuilder::new("branchy");
        let a = p.buffer_init("a", 8, 8);
        p.if_(
            true,
            |p| p.host_write(a),
            |p| p.host_read(a),
        );
        let prog = p.build();
        let count = |seed: u64| {
            let c = prog.concretize(&Binding::new().with_choices(seed)).unwrap();
            let mut writes = 0;
            c.walk(&mut |n| {
                if let Node::Host(acc) = n {
                    writes += acc.is_write as u32;
                }
            });
            writes
        };
        // same seed, same arm; some seed pair differs
        assert_eq!(count(1), count(1));
        assert!((0..16).map(count).collect::<std::collections::BTreeSet<_>>().len() == 2);
    }

    #[test]
    fn iv_outside_loop_is_rejected() {
        let mut p = ProgramBuilder::new("bad-iv");
        let a = p.buffer("a", 8, 16);
        p.target().reads_sym(a, Expr::iv(), Expr::lit(1)).done();
        assert!(matches!(p.try_build(), Err(IrError::IvOutsideLoop { .. })));
    }

    /// Satellite: resolve-vs-symbolic agreement — on seeded concrete
    /// instantiations, resolving a symbolic section after concretization
    /// equals evaluating its symbolic resolution.
    #[test]
    fn resolve_agrees_with_symbolic_resolution() {
        let mut r = rng::SplitMix64::new(0xA11CE);
        for _ in 0..10_000 {
            let start_c = r.below(32);
            let start_k = r.below(4) as i128;
            let len_c = r.below(32);
            let len_k = r.below(4) as i128;
            let pval = r.range(1, 100);
            let mut p = ProgramBuilder::new("prop");
            let n = p.param("n", 1, Some(100));
            let start = Expr::param(n).scale(start_k).add_const(start_c as i128);
            let len = Expr::param(n).scale(len_k).add_const(len_c as i128);
            let a = p.buffer_sym("a", 1, Expr::param(n).scale(8));
            p.target().map_tofrom(a).reads_sym(a, start.clone(), len.clone()).done();
            let prog = p.build();
            let conc = prog.concretize(&Binding::new().set(n, pval)).unwrap();
            // the concretized access section ...
            let mut got = None;
            conc.walk(&mut |node| {
                if let Node::Target(t) = node {
                    got = Some(t.body[0].sect.resolve(conc.buffers[0].len));
                }
            });
            // ... equals the symbolic interval evaluated at the binding.
            let extent = prog.buffers[0].extent();
            let (slo, shi) = prog.nodes_sym_interval(&start, &len, &extent);
            let ev = |e: &Expr| e.eval(&|_| Some(pval), None).unwrap() as u64;
            assert_eq!(got.unwrap(), (ev(&slo), ev(&shi)));
        }
    }
}
