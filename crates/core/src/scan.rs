//! The modified TableScan and per-chunk predicate compilation (§4.3).
//!
//! COHANA extends the standard columnar TableScan with `GetNextUser` and
//! `SkipCurUser`. Over the RLE user column this is simply iterating the
//! `(u, f, n)` triples ([`ChunkScan::next_user`]) and *not* touching the
//! rows of a skipped user — no file pointers need to move because the
//! bit-packed columns are randomly addressable.
//!
//! Predicates are compiled in two stages. [`compile_predicate`] runs once
//! per statement, translating values through the **global** dictionaries:
//!
//! * string equality/ordering is translated to integer comparisons on
//!   **global ids** (dictionary order equals value order);
//! * literals are resolved through the global dictionary *rank*, so a
//!   literal absent from the dictionary still compares correctly;
//! * integer columns decode as `chunk_min + delta` — one add per access;
//! * `Birth(A)` terms read the same columns at the user's birth row;
//! * `AGE` reads the age of the current tuple — except in top-level
//!   `AGE <op> constant` conjuncts of an age selection, which
//!   [`CompiledExpr::split_age_range`] takes out as bounds the executor
//!   turns into a row range without evaluating them per tuple.
//!
//! [`CompiledExpr::specialize`] then runs once per **chunk**, the paper's
//! "compile once per chunk" claim made literal: terms are const-folded
//! against the chunk's integer ranges and chunk-dictionary membership (a
//! `time BETWEEN` wholly containing the chunk's range becomes
//! `Const(true)`; a gid absent from the chunk dictionary becomes
//! `Const(false)`), and surviving gid comparisons are rewritten to **raw
//! chunk-code** comparisons — valid because each chunk dictionary is sorted
//! by gid, so code order equals gid order equals value order. Evaluation
//! reads columns through pre-resolved [`ChunkCursors`], never re-matching
//! the column enum per tuple; an age selection is further bound to
//! block-decoded buffers ([`CompiledExpr::bind_slots`]) and run as a
//! selection-vector filter over a whole user block
//! ([`CompiledExpr::refine`]).

use crate::error::EngineError;
use crate::expr::{CmpOp, Expr};
use cohana_activity::{Schema, Value, ValueType};
use cohana_storage::bitpack::BitPacked;
use cohana_storage::rle::UserRun;
use cohana_storage::{Chunk, ChunkCursors, ChunkDict, TableMeta};

/// Evaluation context for one tuple of one user block.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx {
    /// Row index of the current tuple within the chunk.
    pub row: usize,
    /// Row index of the user's birth tuple within the chunk.
    pub birth_row: usize,
    /// Age of the current tuple in normalized units (0 for the birth tuple).
    pub age_units: i64,
}

/// Scan over one chunk with the two cohort extensions. Opening resolves the
/// action and time columns into cursors once; every subsequent access is a
/// packed-word read with no column lookup.
#[derive(Debug)]
pub struct ChunkScan<'a> {
    chunk: &'a Chunk,
    /// Chunk code of the birth action in this chunk's action dictionary
    /// (`None` means no tuple in this chunk performs the birth action).
    birth_action_code: Option<u64>,
    /// Packed per-row action chunk-codes.
    action_codes: &'a BitPacked,
    /// Chunk minimum of the time column.
    time_min: i64,
    /// Packed per-row time deltas from `time_min`.
    time_deltas: &'a BitPacked,
    next_run: usize,
}

impl<'a> ChunkScan<'a> {
    /// Open a scan. `birth_action_gid` is the global id of the birth action
    /// (`None` if the action occurs nowhere in the table). Returns
    /// [`EngineError::Corrupt`] when the chunk's action column is not
    /// dictionary-encoded or its time column is not an integer segment —
    /// format invariants every valid file upholds.
    pub fn open(
        table: &'a TableMeta,
        chunk: &'a Chunk,
        birth_action_gid: Option<u32>,
    ) -> Result<Self, EngineError> {
        let schema = table.schema();
        let action_idx = schema.action_idx();
        let time_idx = schema.time_idx();
        let action_col = chunk.column(action_idx).ok_or_else(|| {
            EngineError::Corrupt("action column has no materialized segment".into())
        })?;
        let action_dict = action_col.dict().ok_or_else(|| {
            EngineError::Corrupt(
                "action column decodes as an integer segment; the format guarantees a \
                 dictionary-encoded action column"
                    .into(),
            )
        })?;
        let time_col = chunk.column(time_idx).ok_or_else(|| {
            EngineError::Corrupt("time column has no materialized segment".into())
        })?;
        let (time_min, _) = time_col.int_range().ok_or_else(|| {
            EngineError::Corrupt(
                "time column decodes as a string segment; the format guarantees an integer time \
                 column"
                    .into(),
            )
        })?;
        let birth_action_code =
            birth_action_gid.and_then(|gid| action_dict.find(gid).map(|c| c as u64));
        Ok(ChunkScan {
            chunk,
            birth_action_code,
            action_codes: action_col.packed(),
            time_min,
            time_deltas: time_col.packed(),
            next_run: 0,
        })
    }

    /// `GetNextUser()`: the next user's block of activity tuples. Not
    /// reading the previous user's remaining tuples *is* `SkipCurUser()` —
    /// random access makes skipping free.
    pub fn next_user(&mut self) -> Option<UserRun> {
        if self.next_run >= self.chunk.user_rle().num_users() {
            return None;
        }
        let run = self.chunk.user_rle().run(self.next_run);
        self.next_run += 1;
        Some(run)
    }

    /// `GetBirthTuple`: find the row of the user's birth activity tuple —
    /// the first tuple of the block whose action is the birth action —
    /// exploiting the time-ordering property (Algorithm 1, lines 1–5).
    ///
    /// The birth-action chunk code was resolved **once** at scan open;
    /// scanning goes through [`BitPacked::find_first`], which walks packed
    /// words with a running shift instead of re-dividing the index per
    /// element — a win on the scalar path too.
    pub fn find_birth_row(&self, run: &UserRun) -> Option<usize> {
        let code = self.birth_action_code?;
        let start = run.first as usize;
        self.action_codes.find_first(start, start + run.count as usize, code)
    }

    /// Batch `GetBirthTuple` for all users of one morsel: the birth-action
    /// code is resolved once, then each run is searched with the
    /// word-walking early-exit scan ([`BitPacked::find_first`]). The
    /// time-ordering property puts a qualified user's birth at (or near)
    /// the front of their block, so the search typically touches a single
    /// packed word per user — which is why early exit beats block-decoding
    /// the morsel's whole action column and searching the decoded slice.
    /// `out` receives one entry per run, parallel to `runs`.
    pub fn find_birth_rows_batch(&self, runs: &[UserRun], out: &mut Vec<Option<usize>>) {
        out.clear();
        if self.birth_action_code.is_none() {
            out.resize(runs.len(), None);
            return;
        }
        for run in runs {
            out.push(self.find_birth_row(run));
        }
    }

    /// Chunk minimum of the time column (`time == time_min + delta`).
    #[inline]
    pub fn time_min(&self) -> i64 {
        self.time_min
    }

    /// The packed per-row time deltas, for block decode via
    /// [`BitPacked::unpack_range`].
    #[inline]
    pub fn time_deltas(&self) -> &'a BitPacked {
        self.time_deltas
    }

    /// The underlying chunk.
    #[inline]
    pub fn chunk(&self) -> &'a Chunk {
        self.chunk
    }
}

/// A scalar operand of a compiled comparison, yielding an `i64`.
///
/// Strings evaluate to their global dictionary ids, whose order matches
/// value order. The `Code*` forms exist only in chunk-specialized
/// predicates (see [`CompiledExpr::specialize`]): they read the **raw chunk
/// code** without the code→gid translation, valid because the chunk
/// dictionary is sorted by gid.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// Global id of a string attribute at the current row.
    GidAttr(usize),
    /// Global id of a string attribute at the birth row.
    GidBirth(usize),
    /// Integer attribute at the current row.
    IntAttr(usize),
    /// Integer attribute at the birth row.
    IntBirth(usize),
    /// Raw chunk code of a string attribute at the current row
    /// (specialized form).
    CodeAttr(usize),
    /// Raw chunk code of a string attribute at the birth row
    /// (specialized form).
    CodeBirth(usize),
    /// The tuple's age in normalized units.
    Age,
    /// A constant.
    Const(i64),
    /// Raw chunk code of slot `s` of a block-decoded buffer set at the
    /// current row (block-bound form, see [`CompiledExpr::bind_slots`]).
    /// Only valid under [`CompiledExpr::eval_slots`].
    CodeSlot(usize),
    /// Integer attribute served as `min + raw` from slot `s` of a
    /// block-decoded buffer set (block-bound form). `AGE` binds to this
    /// form too, over a slot the executor fills with the block's ages.
    IntSlot(usize, i64),
    /// Global id of string attribute `attr`, translated from the raw chunk
    /// code in slot `s` (block-bound form of a gid read specialization
    /// could not rewrite to codes: a comparison of two different string
    /// columns).
    GidSlot(usize, usize),
}

/// What the executor decodes into one slot of a bound predicate's buffer
/// set (see [`CompiledExpr::bind_slots`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotCol {
    /// The raw codes of an attribute's column.
    Attr(usize),
    /// The normalized age of every tuple of the decoded range.
    Age,
}

impl Scalar {
    #[inline]
    fn eval(&self, cur: &ChunkCursors<'_>, ctx: &EvalCtx) -> i64 {
        match self {
            Scalar::GidAttr(idx) => cur.gid(*idx, ctx.row) as i64,
            Scalar::GidBirth(idx) => cur.gid(*idx, ctx.birth_row) as i64,
            Scalar::IntAttr(idx) => cur.int(*idx, ctx.row),
            Scalar::IntBirth(idx) => cur.int(*idx, ctx.birth_row),
            Scalar::CodeAttr(idx) => cur.code(*idx, ctx.row) as i64,
            Scalar::CodeBirth(idx) => cur.code(*idx, ctx.birth_row) as i64,
            Scalar::Age => ctx.age_units,
            Scalar::Const(v) => *v,
            Scalar::CodeSlot(_) | Scalar::IntSlot(..) | Scalar::GidSlot(..) => {
                unreachable!("slot-bound scalar evaluated without block buffers")
            }
        }
    }

    /// Evaluate under block-decoded buffers: slot scalars read offset `off`
    /// of their buffer; what binding left alone reads the birth row or is a
    /// constant.
    #[inline]
    fn eval_slots(
        &self,
        cur: &ChunkCursors<'_>,
        birth_row: usize,
        bufs: &[Vec<u64>],
        off: usize,
    ) -> i64 {
        match self {
            Scalar::CodeSlot(s) => bufs[*s][off] as i64,
            Scalar::IntSlot(s, min) => min + bufs[*s][off] as i64,
            Scalar::GidSlot(s, attr) => cur.lut(*attr)[bufs[*s][off] as usize] as i64,
            other => other.eval(cur, &EvalCtx { row: birth_row, birth_row, age_units: 0 }),
        }
    }

    /// The attribute index this scalar reads, with the birth/current flag
    /// (`None` for `Age`, constants, and already-bound slot forms).
    fn column(&self) -> Option<(usize, bool)> {
        match self {
            Scalar::GidAttr(i) | Scalar::IntAttr(i) | Scalar::CodeAttr(i) => Some((*i, false)),
            Scalar::GidBirth(i) | Scalar::IntBirth(i) | Scalar::CodeBirth(i) => Some((*i, true)),
            Scalar::Age | Scalar::Const(_) => None,
            Scalar::CodeSlot(_) | Scalar::IntSlot(..) | Scalar::GidSlot(..) => None,
        }
    }
}

/// Rewrite a scalar that varies inside a user block — a current-row column
/// read or `AGE` — to its slot-bound form, registering what the slot holds
/// in `cols` (deduplicated). Birth-row scalars and constants pass through.
fn bind_scalar(s: &Scalar, cur: &ChunkCursors<'_>, cols: &mut Vec<SlotCol>) -> Scalar {
    let mut slot = |col: SlotCol| match cols.iter().position(|c| *c == col) {
        Some(s) => s,
        None => {
            cols.push(col);
            cols.len() - 1
        }
    };
    match s {
        Scalar::CodeAttr(i) => Scalar::CodeSlot(slot(SlotCol::Attr(*i))),
        Scalar::IntAttr(i) => Scalar::IntSlot(slot(SlotCol::Attr(*i)), cur.int_min(*i)),
        Scalar::GidAttr(i) => Scalar::GidSlot(slot(SlotCol::Attr(*i)), *i),
        Scalar::Age => Scalar::IntSlot(slot(SlotCol::Age), 0),
        other => other.clone(),
    }
}

/// A predicate compiled against the table's global dictionaries, and —
/// after [`CompiledExpr::specialize`] — against one chunk's.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    /// Constant outcome (e.g. equality with a value absent from the global
    /// dictionary).
    Const(bool),
    /// Integer comparison of two scalars.
    Cmp(CmpOp, Scalar, Scalar),
    /// Conjunction.
    And(Box<CompiledExpr>, Box<CompiledExpr>),
    /// Disjunction.
    Or(Box<CompiledExpr>, Box<CompiledExpr>),
    /// Negation.
    Not(Box<CompiledExpr>),
    /// Sorted-set membership.
    InSet(Scalar, Vec<i64>),
}

impl CompiledExpr {
    /// Evaluate for one tuple, reading columns through pre-resolved
    /// cursors.
    #[inline]
    pub fn eval(&self, cur: &ChunkCursors<'_>, ctx: &EvalCtx) -> bool {
        match self {
            CompiledExpr::Const(b) => *b,
            CompiledExpr::Cmp(op, a, b) => op.test(a.eval(cur, ctx).cmp(&b.eval(cur, ctx))),
            CompiledExpr::And(a, b) => a.eval(cur, ctx) && b.eval(cur, ctx),
            CompiledExpr::Or(a, b) => a.eval(cur, ctx) || b.eval(cur, ctx),
            CompiledExpr::Not(a) => !a.eval(cur, ctx),
            CompiledExpr::InSet(s, set) => set.binary_search(&s.eval(cur, ctx)).is_ok(),
        }
    }

    /// Whether the predicate is the constant `false` (lets the executor
    /// skip whole chunks or users without per-tuple work).
    pub fn is_const_false(&self) -> bool {
        matches!(self, CompiledExpr::Const(false))
    }

    /// Bind every scalar that varies inside a user block — current-row
    /// column reads and `AGE` — to a slot of a block-decoded buffer set: the
    /// executor fills each registered [`SlotCol`] once per user block
    /// (columns through `BitPacked::unpack_range`) and
    /// [`CompiledExpr::refine`] reads flat buffers instead of
    /// random-accessing packed bits per row.
    pub fn bind_slots(&self, cur: &ChunkCursors<'_>, cols: &mut Vec<SlotCol>) -> CompiledExpr {
        let bind = |e: &CompiledExpr, cols: &mut Vec<SlotCol>| Box::new(e.bind_slots(cur, cols));
        match self {
            CompiledExpr::Const(b) => CompiledExpr::Const(*b),
            CompiledExpr::Cmp(op, a, b) => {
                CompiledExpr::Cmp(*op, bind_scalar(a, cur, cols), bind_scalar(b, cur, cols))
            }
            CompiledExpr::And(a, b) => CompiledExpr::And(bind(a, cols), bind(b, cols)),
            CompiledExpr::Or(a, b) => CompiledExpr::Or(bind(a, cols), bind(b, cols)),
            CompiledExpr::Not(a) => CompiledExpr::Not(bind(a, cols)),
            CompiledExpr::InSet(s, set) => {
                CompiledExpr::InSet(bind_scalar(s, cur, cols), set.clone())
            }
        }
    }

    /// Evaluate a slot-bound predicate (see [`CompiledExpr::bind_slots`])
    /// for the tuple at buffer offset `off`; `bufs` holds the decoded slots
    /// in registration order. Birth-row terms still read through `cur`.
    #[inline]
    pub fn eval_slots(
        &self,
        cur: &ChunkCursors<'_>,
        birth_row: usize,
        bufs: &[Vec<u64>],
        off: usize,
    ) -> bool {
        let scalar = |s: &Scalar| s.eval_slots(cur, birth_row, bufs, off);
        match self {
            CompiledExpr::Const(b) => *b,
            CompiledExpr::Cmp(op, a, b) => op.test(scalar(a).cmp(&scalar(b))),
            CompiledExpr::And(a, b) => {
                a.eval_slots(cur, birth_row, bufs, off) && b.eval_slots(cur, birth_row, bufs, off)
            }
            CompiledExpr::Or(a, b) => {
                a.eval_slots(cur, birth_row, bufs, off) || b.eval_slots(cur, birth_row, bufs, off)
            }
            CompiledExpr::Not(a) => !a.eval_slots(cur, birth_row, bufs, off),
            CompiledExpr::InSet(s, set) => set.binary_search(&scalar(s)).is_ok(),
        }
    }

    /// Whether every scalar the predicate reads is constant within one
    /// user block (birth-row reads and literals only — no slot). Such a
    /// predicate has one outcome for the whole block and is evaluated once
    /// per user, not once per tuple.
    fn is_block_invariant(&self) -> bool {
        fn scalar_inv(s: &Scalar) -> bool {
            matches!(
                s,
                Scalar::GidBirth(_) | Scalar::IntBirth(_) | Scalar::CodeBirth(_) | Scalar::Const(_)
            )
        }
        match self {
            CompiledExpr::Const(_) => true,
            CompiledExpr::Cmp(_, a, b) => scalar_inv(a) && scalar_inv(b),
            CompiledExpr::And(a, b) | CompiledExpr::Or(a, b) => {
                a.is_block_invariant() && b.is_block_invariant()
            }
            CompiledExpr::Not(a) => a.is_block_invariant(),
            CompiledExpr::InSet(s, _) => scalar_inv(s),
        }
    }

    /// Narrow `sel` — ascending offsets into one user block's decoded
    /// range — to the tuples a slot-bound predicate (see
    /// [`CompiledExpr::bind_slots`]) keeps, so everything downstream touches
    /// selected tuples only:
    ///
    /// * slot-vs-constant comparisons run a branch-free compaction loop
    ///   over the decoded buffer (the common §4.3-specialized shape — e.g.
    ///   Q3's `action = 'shop'` is `code == c` by this point);
    /// * conjunctions narrow by each side in turn;
    /// * block-invariant subtrees (birth-row reads, constants) evaluate
    ///   **once per user** and either keep or clear the whole selection;
    /// * anything else (`OR`, `NOT`, `IN`, slot-vs-slot) evaluates
    ///   [`CompiledExpr::eval_slots`] per selected offset.
    ///
    /// Offset `i` addresses element `i` of every buffer in `bufs`.
    pub fn refine(
        &self,
        cur: &ChunkCursors<'_>,
        birth_row: usize,
        bufs: &[Vec<u64>],
        sel: &mut Vec<u32>,
    ) {
        match self {
            CompiledExpr::And(a, b) => {
                a.refine(cur, birth_row, bufs, sel);
                b.refine(cur, birth_row, bufs, sel);
            }
            CompiledExpr::Cmp(op, Scalar::CodeSlot(s), Scalar::Const(c)) => {
                retain_cmp(*op, &bufs[*s], 0, *c, sel);
            }
            CompiledExpr::Cmp(op, Scalar::IntSlot(s, min), Scalar::Const(c)) => {
                retain_cmp(*op, &bufs[*s], *min, *c, sel);
            }
            CompiledExpr::Cmp(op, Scalar::Const(c), Scalar::CodeSlot(s)) => {
                retain_cmp(op.swapped(), &bufs[*s], 0, *c, sel);
            }
            CompiledExpr::Cmp(op, Scalar::Const(c), Scalar::IntSlot(s, min)) => {
                retain_cmp(op.swapped(), &bufs[*s], *min, *c, sel);
            }
            inv if inv.is_block_invariant() => {
                if !inv.eval(cur, &EvalCtx { row: birth_row, birth_row, age_units: 0 }) {
                    sel.clear();
                }
            }
            other => sel.retain(|&i| other.eval_slots(cur, birth_row, bufs, i as usize)),
        }
    }

    /// Split a (specialized) age predicate into the inclusive age bounds
    /// its top-level `AGE <op> constant` conjuncts imply and the residual
    /// conjunction of everything else. Only positive ages reach the age
    /// selection, so the lower bound starts at 1; contradictory bounds leave
    /// an empty range. Ages within a user block are non-decreasing, so the
    /// executor turns the bounds into a row range by binary search instead
    /// of testing them per tuple; `OR`, `NOT`, `AGE !=` and `AGE` compared
    /// to a column stay in the residual.
    pub fn split_age_range(self) -> AgeSelection {
        fn walk(e: CompiledExpr, out: &mut AgeSelection) {
            let cmp = match &e {
                CompiledExpr::Cmp(op, Scalar::Age, Scalar::Const(c)) => Some((*op, *c)),
                CompiledExpr::Cmp(op, Scalar::Const(c), Scalar::Age) => Some((op.swapped(), *c)),
                _ => None,
            };
            // The comparison as an inclusive bound; none for `!=` or when
            // the strict bound's neighbour does not exist.
            let bound = cmp.and_then(|(op, c)| match op {
                CmpOp::Lt => Some((op, c.checked_sub(1)?)),
                CmpOp::Gt => Some((op, c.checked_add(1)?)),
                CmpOp::Ne => None,
                _ => Some((op, c)),
            });
            match (e, bound) {
                (CompiledExpr::And(a, b), _) => {
                    walk(*a, out);
                    walk(*b, out);
                }
                (CompiledExpr::Const(true), _) => {}
                (_, Some((op, bound))) => {
                    if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Eq) {
                        out.hi = out.hi.min(bound);
                    }
                    if matches!(op, CmpOp::Gt | CmpOp::Ge | CmpOp::Eq) {
                        out.lo = out.lo.max(bound);
                    }
                }
                (other, None) => {
                    out.residual = Some(match out.residual.take() {
                        Some(r) => CompiledExpr::And(Box::new(r), Box::new(other)),
                        None => other,
                    });
                }
            }
        }
        let mut out = AgeSelection { lo: 1, hi: i64::MAX, residual: None };
        walk(self, &mut out);
        out
    }

    /// The §4.3 per-chunk specialization pass: fold terms whose outcome the
    /// chunk metadata already decides and rewrite gid comparisons to raw
    /// chunk-code comparisons.
    ///
    /// * An integer comparison is folded to a constant when the chunk's
    ///   `[min, max]` range puts every row on one side (`time BETWEEN`
    ///   wholly containing the chunk's range becomes `Const(true)`; a
    ///   disjoint range becomes `Const(false)`).
    /// * A gid equality whose value is absent from the chunk dictionary
    ///   becomes `Const(false)`; gid comparisons that survive are rewritten
    ///   to chunk-code comparisons (the chunk dictionary is sorted by gid,
    ///   so code order ≡ gid order ≡ value order), skipping the code→gid
    ///   LUT per tuple.
    /// * `And`/`Or`/`Not` fold through constant sub-terms.
    ///
    /// Every rewrite is row-independent — sound for birth and age
    /// predicates alike, at any row of this chunk (including `Birth(A)`
    /// terms, which read other rows of the *same* chunk).
    pub fn specialize(&self, chunk: &Chunk) -> CompiledExpr {
        match self {
            CompiledExpr::Const(b) => CompiledExpr::Const(*b),
            CompiledExpr::And(a, b) => match (a.specialize(chunk), b.specialize(chunk)) {
                (CompiledExpr::Const(false), _) | (_, CompiledExpr::Const(false)) => {
                    CompiledExpr::Const(false)
                }
                (CompiledExpr::Const(true), x) | (x, CompiledExpr::Const(true)) => x,
                (a, b) => CompiledExpr::And(Box::new(a), Box::new(b)),
            },
            CompiledExpr::Or(a, b) => match (a.specialize(chunk), b.specialize(chunk)) {
                (CompiledExpr::Const(true), _) | (_, CompiledExpr::Const(true)) => {
                    CompiledExpr::Const(true)
                }
                (CompiledExpr::Const(false), x) | (x, CompiledExpr::Const(false)) => x,
                (a, b) => CompiledExpr::Or(Box::new(a), Box::new(b)),
            },
            CompiledExpr::Not(a) => match a.specialize(chunk) {
                CompiledExpr::Const(b) => CompiledExpr::Const(!b),
                x => CompiledExpr::Not(Box::new(x)),
            },
            CompiledExpr::Cmp(op, a, b) => specialize_cmp(*op, a, b, chunk),
            CompiledExpr::InSet(s, set) => specialize_in_set(s, set, chunk),
        }
    }
}

/// An age predicate as the executor runs it (see
/// [`CompiledExpr::split_age_range`]): ages `lo..=hi` of the tuples the
/// residual keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct AgeSelection {
    /// Smallest selected age (at least 1).
    pub lo: i64,
    /// Largest selected age (`i64::MAX` when unbounded).
    pub hi: i64,
    /// What is left of the predicate once the bounds are taken out.
    pub residual: Option<CompiledExpr>,
}

impl AgeSelection {
    /// Whether no tuple can pass: users still qualify (their cohort sizes
    /// count), but nothing reaches the aggregates.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi || self.residual.as_ref().is_some_and(CompiledExpr::is_const_false)
    }
}

/// Branch-free compaction keeping the offsets of `sel` whose tuple passes
/// `(min + raw) op c`: every offset is stored and the write position
/// advances by the outcome, so there is no data-dependent branch to
/// mispredict. The operator match is hoisted out of the loop.
fn retain_cmp(op: CmpOp, raw: &[u64], min: i64, c: i64, sel: &mut Vec<u32>) {
    macro_rules! lanes {
        ($cmp:tt) => {{
            let mut kept = 0;
            for k in 0..sel.len() {
                let i = sel[k];
                sel[kept] = i;
                kept += ((min + raw[i as usize] as i64) $cmp c) as usize;
            }
            sel.truncate(kept);
        }};
    }
    match op {
        CmpOp::Eq => lanes!(==),
        CmpOp::Ne => lanes!(!=),
        CmpOp::Lt => lanes!(<),
        CmpOp::Le => lanes!(<=),
        CmpOp::Gt => lanes!(>),
        CmpOp::Ge => lanes!(>=),
    }
}

/// The chunk dictionary of the column a gid scalar reads, if materialized.
fn scalar_chunk_dict<'c>(chunk: &'c Chunk, s: &Scalar) -> Option<&'c ChunkDict> {
    chunk.column(s.column()?.0)?.dict()
}

/// The chunk `[min, max]` of the column an integer scalar reads.
fn scalar_int_range(chunk: &Chunk, s: &Scalar) -> Option<(i64, i64)> {
    chunk.column(s.column()?.0)?.int_range()
}

/// Re-aim a gid scalar at the raw chunk codes of the same column.
fn to_code(s: &Scalar) -> Scalar {
    match s {
        Scalar::GidAttr(i) => Scalar::CodeAttr(*i),
        Scalar::GidBirth(i) => Scalar::CodeBirth(*i),
        other => other.clone(),
    }
}

/// Specialize one comparison against a chunk (see
/// [`CompiledExpr::specialize`]).
fn specialize_cmp(op: CmpOp, a: &Scalar, b: &Scalar, chunk: &Chunk) -> CompiledExpr {
    // Constant vs constant: decide now.
    if let (Scalar::Const(x), Scalar::Const(y)) = (a, b) {
        return CompiledExpr::Const(op.test(x.cmp(y)));
    }

    // gid-column vs constant: translate the gid constant to chunk-code
    // space and compare raw codes.
    if let (Scalar::GidAttr(_) | Scalar::GidBirth(_), Scalar::Const(k)) = (a, b) {
        if let Some(dict) = scalar_chunk_dict(chunk, a) {
            return specialize_gid_const_cmp(op, to_code(a), *k, dict);
        }
    }

    // Same string column at current and birth rows: the shared chunk
    // dictionary's code→gid map is strictly increasing, so comparing codes
    // is comparing gids.
    if let (Scalar::GidAttr(i) | Scalar::GidBirth(i), Scalar::GidAttr(j) | Scalar::GidBirth(j)) =
        (a, b)
    {
        if i == j && chunk.column(*i).is_some_and(|c| c.dict().is_some()) {
            return CompiledExpr::Cmp(op, to_code(a), to_code(b));
        }
    }

    // Integer column vs constant: fold when the chunk range decides the
    // outcome for every row.
    if let (Scalar::IntAttr(_) | Scalar::IntBirth(_), Scalar::Const(k)) = (a, b) {
        if let Some((mn, mx)) = scalar_int_range(chunk, a) {
            if let Some(v) = fold_int_range_cmp(op, mn, mx, *k) {
                return CompiledExpr::Const(v);
            }
        }
    }

    CompiledExpr::Cmp(op, a.clone(), b.clone())
}

/// Decide `value <op> k` from `value ∈ [mn, mx]` when every row agrees;
/// `None` when the chunk straddles the constant.
fn fold_int_range_cmp(op: CmpOp, mn: i64, mx: i64, k: i64) -> Option<bool> {
    match op {
        CmpOp::Lt => (mx < k).then_some(true).or((mn >= k).then_some(false)),
        CmpOp::Le => (mx <= k).then_some(true).or((mn > k).then_some(false)),
        CmpOp::Gt => (mn > k).then_some(true).or((mx <= k).then_some(false)),
        CmpOp::Ge => (mn >= k).then_some(true).or((mx < k).then_some(false)),
        CmpOp::Eq => {
            if k < mn || k > mx {
                Some(false)
            } else {
                (mn == mx).then_some(true)
            }
        }
        CmpOp::Ne => {
            if k < mn || k > mx {
                Some(true)
            } else {
                (mn == mx).then_some(false)
            }
        }
    }
}

/// Rewrite `gid_scalar <op> gid-constant` into chunk-code space.
///
/// `codes_below` = number of chunk-dictionary entries with gid < k, so
/// `gid < k ⟺ code < codes_below` — the chunk-level analogue of
/// [`cohana_storage::GlobalDict::rank`]. Comparisons decided for the whole
/// chunk (every code below / none below) fold to constants.
fn specialize_gid_const_cmp(
    op: CmpOp,
    code_scalar: Scalar,
    k: i64,
    dict: &ChunkDict,
) -> CompiledExpr {
    let gids = dict.global_ids();
    let len = gids.len() as i64;
    let codes_below = gids.partition_point(|&g| (g as i64) < k) as i64;
    let member_code = if k >= 0 && k <= u32::MAX as i64 { dict.find(k as u32) } else { None };
    match op {
        CmpOp::Eq => match member_code {
            // A single-entry chunk dictionary means every row holds k.
            Some(_) if len == 1 => CompiledExpr::Const(true),
            Some(c) => CompiledExpr::Cmp(CmpOp::Eq, code_scalar, Scalar::Const(c as i64)),
            None => CompiledExpr::Const(false),
        },
        CmpOp::Ne => match member_code {
            Some(c) if len == 1 => {
                debug_assert_eq!(c, 0);
                CompiledExpr::Const(false)
            }
            Some(c) => CompiledExpr::Cmp(CmpOp::Ne, code_scalar, Scalar::Const(c as i64)),
            None => CompiledExpr::Const(true),
        },
        // gid < k ⟺ code < codes_below; ≤ k ⟺ < (codes at or below).
        CmpOp::Lt | CmpOp::Ge => {
            let bound = codes_below;
            let fold = match bound {
                0 => Some(false),            // no code is below: `<` never holds
                b if b == len => Some(true), // every code is below
                _ => None,
            };
            match (op, fold) {
                (CmpOp::Lt, Some(v)) => CompiledExpr::Const(v),
                (CmpOp::Ge, Some(v)) => CompiledExpr::Const(!v),
                (CmpOp::Lt, None) => {
                    CompiledExpr::Cmp(CmpOp::Lt, code_scalar, Scalar::Const(bound))
                }
                _ => CompiledExpr::Cmp(CmpOp::Ge, code_scalar, Scalar::Const(bound)),
            }
        }
        CmpOp::Le | CmpOp::Gt => {
            let bound = gids.partition_point(|&g| (g as i64) <= k) as i64;
            let fold = match bound {
                0 => Some(false),
                b if b == len => Some(true),
                _ => None,
            };
            match (op, fold) {
                (CmpOp::Le, Some(v)) => CompiledExpr::Const(v),
                (CmpOp::Gt, Some(v)) => CompiledExpr::Const(!v),
                (CmpOp::Le, None) => {
                    CompiledExpr::Cmp(CmpOp::Lt, code_scalar, Scalar::Const(bound))
                }
                _ => CompiledExpr::Cmp(CmpOp::Ge, code_scalar, Scalar::Const(bound)),
            }
        }
    }
}

/// Specialize sorted-set membership: gid sets translate to chunk-code sets
/// (values absent from the chunk drop out — an empty intersection proves
/// `Const(false)`); integer sets are clipped to the chunk range.
fn specialize_in_set(s: &Scalar, set: &[i64], chunk: &Chunk) -> CompiledExpr {
    match s {
        Scalar::GidAttr(_) | Scalar::GidBirth(_) => {
            if let Some(dict) = scalar_chunk_dict(chunk, s) {
                let codes: Vec<i64> = set
                    .iter()
                    .filter_map(|&gid| {
                        u32::try_from(gid).ok().and_then(|g| dict.find(g)).map(|c| c as i64)
                    })
                    .collect();
                // `set` is sorted by gid and code order mirrors gid order,
                // so `codes` is already sorted for binary search.
                debug_assert!(codes.windows(2).all(|w| w[0] < w[1]));
                if codes.is_empty() {
                    return CompiledExpr::Const(false);
                }
                return CompiledExpr::InSet(to_code(s), codes);
            }
            CompiledExpr::InSet(s.clone(), set.to_vec())
        }
        Scalar::IntAttr(_) | Scalar::IntBirth(_) => {
            if let Some((mn, mx)) = scalar_int_range(chunk, s) {
                let clipped: Vec<i64> =
                    set.iter().copied().filter(|v| (mn..=mx).contains(v)).collect();
                if clipped.is_empty() {
                    return CompiledExpr::Const(false);
                }
                if mn == mx {
                    // Single-valued chunk: membership is already decided.
                    return CompiledExpr::Const(true);
                }
                return CompiledExpr::InSet(s.clone(), clipped);
            }
            CompiledExpr::InSet(s.clone(), set.to_vec())
        }
        Scalar::Const(v) => CompiledExpr::Const(set.binary_search(v).is_ok()),
        _ => CompiledExpr::InSet(s.clone(), set.to_vec()),
    }
}

/// Compile an [`Expr`] against the table's global dictionaries. The result
/// is chunk-independent (global ids are table-global); only the evaluation
/// touches chunk data.
pub fn compile_predicate(
    expr: &Expr,
    schema: &Schema,
    table: &TableMeta,
) -> Result<CompiledExpr, EngineError> {
    match expr {
        Expr::And(a, b) => Ok(CompiledExpr::And(
            Box::new(compile_predicate(a, schema, table)?),
            Box::new(compile_predicate(b, schema, table)?),
        )),
        Expr::Or(a, b) => Ok(CompiledExpr::Or(
            Box::new(compile_predicate(a, schema, table)?),
            Box::new(compile_predicate(b, schema, table)?),
        )),
        Expr::Not(a) => Ok(CompiledExpr::Not(Box::new(compile_predicate(a, schema, table)?))),
        Expr::Cmp(op, a, b) => compile_cmp(*op, a, b, schema, table),
        Expr::Between(a, lo, hi) => {
            let ge = Expr::Cmp(CmpOp::Ge, a.clone(), Box::new(Expr::Lit(lo.clone())));
            let le = Expr::Cmp(CmpOp::Le, a.clone(), Box::new(Expr::Lit(hi.clone())));
            Ok(CompiledExpr::And(
                Box::new(compile_predicate(&ge, schema, table)?),
                Box::new(compile_predicate(&le, schema, table)?),
            ))
        }
        Expr::InList(a, values) => {
            let (scalar, vtype) = compile_scalar(a, schema)?;
            let mut set = Vec::with_capacity(values.len());
            for v in values {
                match (vtype, v) {
                    (ValueType::Int, Value::Int(i)) => set.push(*i),
                    (ValueType::Str, Value::Str(s)) => {
                        let attr_idx = scalar_attr_idx(&scalar)
                            .ok_or_else(|| EngineError::TypeError(format!("IN on {a}")))?;
                        // Absent values simply never match.
                        if let Some(gid) = table.lookup_gid(attr_idx, s) {
                            set.push(gid as i64);
                        }
                    }
                    _ => {
                        return Err(EngineError::TypeError(format!(
                            "IN list value {v} does not match operand type"
                        )))
                    }
                }
            }
            set.sort_unstable();
            set.dedup();
            if set.is_empty() {
                return Ok(CompiledExpr::Const(false));
            }
            Ok(CompiledExpr::InSet(scalar, set))
        }
        other => Err(EngineError::TypeError(format!("`{other}` is not a boolean predicate"))),
    }
}

fn scalar_attr_idx(s: &Scalar) -> Option<usize> {
    match s {
        Scalar::GidAttr(i) | Scalar::GidBirth(i) | Scalar::IntAttr(i) | Scalar::IntBirth(i) => {
            Some(*i)
        }
        _ => None,
    }
}

/// Compile a scalar term, returning its runtime representation and type.
fn compile_scalar(expr: &Expr, schema: &Schema) -> Result<(Scalar, ValueType), EngineError> {
    match expr {
        Expr::Attr(name) => {
            let idx = schema.require(name)?;
            match schema.attribute(idx).vtype {
                ValueType::Str => Ok((Scalar::GidAttr(idx), ValueType::Str)),
                ValueType::Int => Ok((Scalar::IntAttr(idx), ValueType::Int)),
            }
        }
        Expr::Birth(name) => {
            let idx = schema.require(name)?;
            match schema.attribute(idx).vtype {
                ValueType::Str => Ok((Scalar::GidBirth(idx), ValueType::Str)),
                ValueType::Int => Ok((Scalar::IntBirth(idx), ValueType::Int)),
            }
        }
        Expr::Age => Ok((Scalar::Age, ValueType::Int)),
        Expr::Lit(Value::Int(v)) => Ok((Scalar::Const(*v), ValueType::Int)),
        other => Err(EngineError::TypeError(format!("`{other}` is not a scalar term"))),
    }
}

fn compile_cmp(
    op: CmpOp,
    lhs: &Expr,
    rhs: &Expr,
    schema: &Schema,
    table: &TableMeta,
) -> Result<CompiledExpr, EngineError> {
    // Normalize literal-on-the-left by flipping the comparison.
    if matches!(lhs, Expr::Lit(_)) && !matches!(rhs, Expr::Lit(_)) {
        let flipped = match op {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        };
        return compile_cmp(flipped, rhs, lhs, schema, table);
    }

    match rhs {
        // column <op> string-literal: translate through the global
        // dictionary rank so absent literals still order correctly.
        Expr::Lit(Value::Str(s)) => {
            let (scalar, vtype) = compile_scalar(lhs, schema)?;
            if vtype != ValueType::Str {
                return Err(EngineError::TypeError(format!(
                    "comparing integer term with string literal \"{s}\""
                )));
            }
            let attr_idx = scalar_attr_idx(&scalar)
                .ok_or_else(|| EngineError::TypeError("string literal vs AGE".into()))?;
            let dict = table
                .global_dict(attr_idx)
                .ok_or_else(|| EngineError::TypeError("expected dictionary column".into()))?;
            let present = dict.lookup(s);
            let rank = dict.rank(s) as i64;
            Ok(match (op, present) {
                (CmpOp::Eq, Some(gid)) => {
                    CompiledExpr::Cmp(CmpOp::Eq, scalar, Scalar::Const(gid as i64))
                }
                (CmpOp::Eq, None) => CompiledExpr::Const(false),
                (CmpOp::Ne, Some(gid)) => {
                    CompiledExpr::Cmp(CmpOp::Ne, scalar, Scalar::Const(gid as i64))
                }
                (CmpOp::Ne, None) => CompiledExpr::Const(true),
                // gid < rank(v) <=> value < v ; see GlobalDict::rank.
                (CmpOp::Lt, _) => CompiledExpr::Cmp(CmpOp::Lt, scalar, Scalar::Const(rank)),
                (CmpOp::Ge, _) => CompiledExpr::Cmp(CmpOp::Ge, scalar, Scalar::Const(rank)),
                (CmpOp::Le, Some(gid)) => {
                    CompiledExpr::Cmp(CmpOp::Le, scalar, Scalar::Const(gid as i64))
                }
                (CmpOp::Le, None) => CompiledExpr::Cmp(CmpOp::Lt, scalar, Scalar::Const(rank)),
                (CmpOp::Gt, Some(gid)) => {
                    CompiledExpr::Cmp(CmpOp::Gt, scalar, Scalar::Const(gid as i64))
                }
                (CmpOp::Gt, None) => CompiledExpr::Cmp(CmpOp::Ge, scalar, Scalar::Const(rank)),
            })
        }
        _ => {
            let (ls, lt) = compile_scalar(lhs, schema)?;
            let (rs, rt) = compile_scalar(rhs, schema)?;
            if lt != rt {
                return Err(EngineError::TypeError(format!(
                    "comparing {} with {}",
                    lt.name(),
                    rt.name()
                )));
            }
            // Str vs Str compares global ids; dictionary order equals value
            // order, so every comparison operator is preserved.
            Ok(CompiledExpr::Cmp(op, ls, rs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohana_activity::{generate, GeneratorConfig, Timestamp};
    use cohana_storage::{CompressedTable, CompressionOptions};

    fn setup() -> (cohana_activity::ActivityTable, CompressedTable) {
        let t = generate(&GeneratorConfig::small());
        let c = CompressedTable::build(&t, CompressionOptions::with_chunk_size(200)).unwrap();
        (t, c)
    }

    #[test]
    fn next_user_visits_every_user_once() {
        let (t, c) = setup();
        let gid = c.lookup_gid(t.schema().action_idx(), "launch");
        let mut total = 0usize;
        for chunk in c.chunks() {
            let mut scan = ChunkScan::open(c.table_meta(), chunk, gid).unwrap();
            while let Some(run) = scan.next_user() {
                assert!(run.count > 0);
                total += 1;
            }
        }
        assert_eq!(total, t.num_users());
    }

    #[test]
    fn find_birth_row_is_first_matching_action() {
        let (t, c) = setup();
        let aidx = t.schema().action_idx();
        let gid = c.lookup_gid(aidx, "launch");
        for chunk in c.chunks() {
            let mut scan = ChunkScan::open(c.table_meta(), chunk, gid).unwrap();
            while let Some(run) = scan.next_user() {
                // Every user's first action is launch, so the birth row is
                // the first row of the block.
                assert_eq!(scan.find_birth_row(&run), Some(run.first as usize));
            }
        }
    }

    #[test]
    fn batch_birth_rows_match_per_user_search() {
        let (t, c) = setup();
        let aidx = t.schema().action_idx();
        // "shop" births exercise non-trivial search depth (unlike "launch",
        // which always matches the first row of a block).
        for action in ["launch", "shop"] {
            let gid = c.lookup_gid(aidx, action);
            let mut batch = Vec::new();
            for chunk in c.chunks() {
                let scan = ChunkScan::open(c.table_meta(), chunk, gid).unwrap();
                let runs: Vec<UserRun> = chunk.user_rle().runs().collect();
                // Whole chunk as one morsel, then split morsels.
                scan.find_birth_rows_batch(&runs, &mut batch);
                let expect: Vec<Option<usize>> =
                    runs.iter().map(|r| scan.find_birth_row(r)).collect();
                assert_eq!(batch, expect, "action {action}");
                let mid = runs.len() / 2;
                scan.find_birth_rows_batch(&runs[mid..], &mut batch);
                assert_eq!(batch, expect[mid..], "action {action}, tail morsel");
            }
            // Empty morsel.
            scan_empty_batch(&c, gid, &mut batch);
        }
    }

    fn scan_empty_batch(c: &CompressedTable, gid: Option<u32>, batch: &mut Vec<Option<usize>>) {
        let chunk = &c.chunks()[0];
        let scan = ChunkScan::open(c.table_meta(), chunk, gid).unwrap();
        scan.find_birth_rows_batch(&[], batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn find_birth_row_none_for_missing_action() {
        let (t, c) = setup();
        let gid = c.lookup_gid(t.schema().action_idx(), "no-such-action");
        assert_eq!(gid, None);
        for chunk in c.chunks() {
            let mut scan = ChunkScan::open(c.table_meta(), chunk, gid).unwrap();
            while let Some(run) = scan.next_user() {
                assert_eq!(scan.find_birth_row(&run), None);
            }
        }
    }

    #[test]
    fn compiled_string_equality_matches_decoded() {
        let (t, c) = setup();
        let schema = t.schema();
        let e = Expr::attr("action").eq(Expr::lit_str("shop"));
        let compiled = compile_predicate(&e, schema, c.table_meta()).unwrap();
        let aidx = schema.action_idx();
        for (ci, chunk) in c.chunks().iter().enumerate() {
            let cur = chunk.cursors();
            let spec = compiled.specialize(chunk);
            for row in 0..chunk.num_rows() {
                let ctx = EvalCtx { row, birth_row: row, age_units: 0 };
                let expect = c.decode_value(ci, row, aidx).as_str() == Some("shop");
                assert_eq!(compiled.eval(&cur, &ctx), expect);
                assert_eq!(spec.eval(&cur, &ctx), expect, "specialized disagrees at row {row}");
            }
        }
    }

    #[test]
    fn compiled_absent_literal() {
        let (t, c) = setup();
        let schema = t.schema();
        let eq = compile_predicate(
            &Expr::attr("action").eq(Expr::lit_str("zzz-nope")),
            schema,
            c.table_meta(),
        )
        .unwrap();
        assert!(eq.is_const_false());
        let ne = compile_predicate(
            &Expr::attr("action").ne(Expr::lit_str("zzz-nope")),
            schema,
            c.table_meta(),
        )
        .unwrap();
        assert_eq!(ne, CompiledExpr::Const(true));
    }

    #[test]
    fn compiled_string_ordering_with_absent_literal() {
        let (t, c) = setup();
        let schema = t.schema();
        // "m" sits between action names; compare against decoded strings.
        let e = Expr::attr("action").lt(Expr::lit_str("m"));
        let compiled = compile_predicate(&e, schema, c.table_meta()).unwrap();
        let aidx = schema.action_idx();
        for (ci, chunk) in c.chunks().iter().enumerate() {
            let cur = chunk.cursors();
            let spec = compiled.specialize(chunk);
            for row in 0..chunk.num_rows().min(50) {
                let ctx = EvalCtx { row, birth_row: row, age_units: 0 };
                let decoded = c.decode_value(ci, row, aidx);
                let expect = decoded.as_str().unwrap() < "m";
                assert_eq!(compiled.eval(&cur, &ctx), expect, "row {row}: {decoded}");
                assert_eq!(spec.eval(&cur, &ctx), expect, "specialized: row {row}: {decoded}");
            }
        }
    }

    #[test]
    fn compiled_time_between() {
        let (t, c) = setup();
        let schema = t.schema();
        let lo = Timestamp::parse("2013-05-21").unwrap().secs();
        let hi = Timestamp::parse("2013-05-27").unwrap().secs();
        let e = Expr::attr("time").between_int(lo, hi);
        let compiled = compile_predicate(&e, schema, c.table_meta()).unwrap();
        let tidx = schema.time_idx();
        for (ci, chunk) in c.chunks().iter().enumerate() {
            let cur = chunk.cursors();
            let spec = compiled.specialize(chunk);
            for row in 0..chunk.num_rows().min(50) {
                let ctx = EvalCtx { row, birth_row: row, age_units: 0 };
                let v = c.decode_value(ci, row, tidx).as_int().unwrap();
                assert_eq!(compiled.eval(&cur, &ctx), (lo..=hi).contains(&v));
                assert_eq!(spec.eval(&cur, &ctx), (lo..=hi).contains(&v), "specialized row {row}");
            }
        }
    }

    #[test]
    fn compiled_birth_reference_and_age() {
        let (t, c) = setup();
        let schema = t.schema();
        let e =
            Expr::attr("country").eq(Expr::birth("country")).and(Expr::age().lt(Expr::lit_int(7)));
        let compiled = compile_predicate(&e, schema, c.table_meta()).unwrap();
        let chunk = &c.chunks()[0];
        let cur = chunk.cursors();
        // Same row as its own birth: country trivially equal; age gate decides.
        let ctx = EvalCtx { row: 0, birth_row: 0, age_units: 3 };
        assert!(compiled.eval(&cur, &ctx));
        assert!(compiled.specialize(chunk).eval(&cur, &ctx));
        let ctx = EvalCtx { row: 0, birth_row: 0, age_units: 9 };
        assert!(!compiled.eval(&cur, &ctx));
        assert!(!compiled.specialize(chunk).eval(&cur, &ctx));
    }

    #[test]
    fn compiled_in_list_strings() {
        let (t, c) = setup();
        let schema = t.schema();
        let e = Expr::attr("country").in_list([
            Value::str("China"),
            Value::str("Australia"),
            Value::str("Atlantis"), // absent: ignored
        ]);
        let compiled = compile_predicate(&e, schema, c.table_meta()).unwrap();
        let cidx = schema.index_of("country").unwrap();
        for (ci, chunk) in c.chunks().iter().enumerate() {
            let cur = chunk.cursors();
            let spec = compiled.specialize(chunk);
            for row in 0..chunk.num_rows().min(80) {
                let ctx = EvalCtx { row, birth_row: row, age_units: 0 };
                let v = c.decode_value(ci, row, cidx);
                let expect = matches!(v.as_str(), Some("China") | Some("Australia"));
                assert_eq!(compiled.eval(&cur, &ctx), expect);
                assert_eq!(spec.eval(&cur, &ctx), expect, "specialized row {row}");
            }
        }
    }

    // ---------------------------------------------------------------------
    // Per-chunk specialization (§4.3 "compile once per chunk")

    use cohana_storage::{ChunkColumn, UserRle};

    /// A hand-built chunk: attr 1 is an integer column with range
    /// `[100, 150]`, attr 2 a string column whose chunk dictionary holds
    /// gids {2, 5, 9}.
    fn spec_chunk() -> Chunk {
        Chunk::new(
            UserRle::from_rows(&[1, 1, 2]),
            vec![
                None,
                Some(ChunkColumn::from_ints(&[100, 150, 120])),
                Some(ChunkColumn::from_gids(&[2, 5, 9])),
            ],
        )
        .unwrap()
    }

    fn int_cmp(op: CmpOp, k: i64) -> CompiledExpr {
        CompiledExpr::Cmp(op, Scalar::IntAttr(1), Scalar::Const(k))
    }

    fn gid_cmp(op: CmpOp, k: i64) -> CompiledExpr {
        CompiledExpr::Cmp(op, Scalar::GidAttr(2), Scalar::Const(k))
    }

    #[test]
    fn specialize_folds_chunk_subsumed_between() {
        let chunk = spec_chunk();
        // BETWEEN compiles to Ge AND Le; chunk range [100, 150] ⊆ [50, 200].
        let between =
            CompiledExpr::And(Box::new(int_cmp(CmpOp::Ge, 50)), Box::new(int_cmp(CmpOp::Le, 200)));
        assert_eq!(between.specialize(&chunk), CompiledExpr::Const(true));
        // Disjoint range: the whole conjunction folds to false.
        let disjoint =
            CompiledExpr::And(Box::new(int_cmp(CmpOp::Ge, 500)), Box::new(int_cmp(CmpOp::Le, 900)));
        assert_eq!(disjoint.specialize(&chunk), CompiledExpr::Const(false));
        // Straddling bound: the undecidable half survives, the decided half
        // folds away.
        let straddle =
            CompiledExpr::And(Box::new(int_cmp(CmpOp::Ge, 50)), Box::new(int_cmp(CmpOp::Le, 120)));
        assert_eq!(straddle.specialize(&chunk), int_cmp(CmpOp::Le, 120));
    }

    #[test]
    fn specialize_folds_chunk_dict_absent_gid() {
        let chunk = spec_chunk();
        // gid 4 is in no row of this chunk: equality is decided.
        assert_eq!(gid_cmp(CmpOp::Eq, 4).specialize(&chunk), CompiledExpr::Const(false));
        assert_eq!(gid_cmp(CmpOp::Ne, 4).specialize(&chunk), CompiledExpr::Const(true));
        // gid 5 is present at chunk code 1: equality becomes a raw-code
        // comparison.
        assert_eq!(
            gid_cmp(CmpOp::Eq, 5).specialize(&chunk),
            CompiledExpr::Cmp(CmpOp::Eq, Scalar::CodeAttr(2), Scalar::Const(1))
        );
        // Orderings translate through the chunk dictionary: gid < 6 holds
        // for codes {0, 1} (gids 2, 5).
        assert_eq!(
            gid_cmp(CmpOp::Lt, 6).specialize(&chunk),
            CompiledExpr::Cmp(CmpOp::Lt, Scalar::CodeAttr(2), Scalar::Const(2))
        );
        // Bounds outside the chunk's gid range fold entirely.
        assert_eq!(gid_cmp(CmpOp::Lt, 1).specialize(&chunk), CompiledExpr::Const(false));
        assert_eq!(gid_cmp(CmpOp::Lt, 100).specialize(&chunk), CompiledExpr::Const(true));
        assert_eq!(gid_cmp(CmpOp::Ge, 1).specialize(&chunk), CompiledExpr::Const(true));
    }

    #[test]
    fn specialize_folds_mixed_and_or_not() {
        let chunk = spec_chunk();
        let t = || int_cmp(CmpOp::Ge, 50); // folds true
        let f = || gid_cmp(CmpOp::Eq, 4); // folds false
        let live = || int_cmp(CmpOp::Le, 120); // survives
                                               // Not(false) = true; Or(true, _) short-circuits.
        let e = CompiledExpr::Or(Box::new(CompiledExpr::Not(Box::new(f()))), Box::new(live()));
        assert_eq!(e.specialize(&chunk), CompiledExpr::Const(true));
        // And(true, live) = live; Or(false, live) = live.
        let e = CompiledExpr::And(Box::new(t()), Box::new(live()));
        assert_eq!(e.specialize(&chunk), live());
        let e = CompiledExpr::Or(Box::new(f()), Box::new(live()));
        assert_eq!(e.specialize(&chunk), live());
        // Not survives over an undecided term.
        let e = CompiledExpr::Not(Box::new(live()));
        assert_eq!(e.specialize(&chunk), CompiledExpr::Not(Box::new(live())));
    }

    #[test]
    fn specialize_in_set_translates_to_chunk_codes() {
        let chunk = spec_chunk();
        // Gid set {4, 5, 7}: only gid 5 occurs here, at code 1.
        let e = CompiledExpr::InSet(Scalar::GidAttr(2), vec![4, 5, 7]);
        assert_eq!(e.specialize(&chunk), CompiledExpr::InSet(Scalar::CodeAttr(2), vec![1]));
        // Entirely absent set: proved false.
        let e = CompiledExpr::InSet(Scalar::GidAttr(2), vec![0, 4, 7]);
        assert_eq!(e.specialize(&chunk), CompiledExpr::Const(false));
        // Integer set clipped to the chunk range.
        let e = CompiledExpr::InSet(Scalar::IntAttr(1), vec![10, 120, 999]);
        assert_eq!(e.specialize(&chunk), CompiledExpr::InSet(Scalar::IntAttr(1), vec![120]));
        let e = CompiledExpr::InSet(Scalar::IntAttr(1), vec![10, 999]);
        assert_eq!(e.specialize(&chunk), CompiledExpr::Const(false));
    }

    #[test]
    fn specialize_agrees_with_original_on_every_row() {
        // The full differential: on real generated chunks, the specialized
        // predicate must agree with the statement-level compilation on
        // every row, for a predicate exercising gids, ints, birth refs,
        // AND/OR/NOT, and IN.
        let (t, c) = setup();
        let schema = t.schema();
        let e = Expr::attr("country")
            .eq(Expr::birth("country"))
            .and(Expr::attr("gold").gt(Expr::lit_int(3)))
            .or(Expr::attr("action").in_list([Value::str("shop"), Value::str("zzz")]).not());
        let compiled = compile_predicate(&e, schema, c.table_meta()).unwrap();
        for chunk in c.chunks() {
            let cur = chunk.cursors();
            let spec = compiled.specialize(chunk);
            for row in 0..chunk.num_rows() {
                for birth_row in [0, row] {
                    let ctx = EvalCtx { row, birth_row, age_units: 1 };
                    assert_eq!(
                        compiled.eval(&cur, &ctx),
                        spec.eval(&cur, &ctx),
                        "row {row} birth {birth_row}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_age_range_folds_top_level_bounds() {
        use CmpOp::*;
        let age = |op, c| CompiledExpr::Cmp(op, Scalar::Age, Scalar::Const(c));
        let and = |a, b| CompiledExpr::And(Box::new(a), Box::new(b));
        let range = |lo, hi, residual| AgeSelection { lo, hi, residual };
        let live = || int_cmp(Le, 120);

        assert_eq!(age(Lt, 7).split_age_range(), range(1, 6, None));
        assert_eq!(age(Le, 7).split_age_range(), range(1, 7, None));
        assert_eq!(age(Gt, 2).split_age_range(), range(3, i64::MAX, None));
        assert_eq!(age(Eq, 4).split_age_range(), range(4, 4, None));
        // Constant first: `3 <= AGE` is `AGE >= 3`.
        let flipped = CompiledExpr::Cmp(Le, Scalar::Const(3), Scalar::Age);
        assert_eq!(flipped.split_age_range(), range(3, i64::MAX, None));
        // BETWEEN is two conjuncts; other conjuncts collect in the residual.
        let between = and(and(age(Ge, 2), live()), and(age(Le, 5), gid_cmp(Eq, 5)));
        let rest = and(live(), gid_cmp(Eq, 5));
        assert_eq!(between.split_age_range(), range(2, 5, Some(rest)));
        // The tightest of repeated bounds wins; bounds below 1 do not widen.
        assert_eq!(and(age(Lt, 9), age(Lt, 4)).split_age_range(), range(1, 3, None));
        assert_eq!(age(Ge, -3).split_age_range(), range(1, i64::MAX, None));

        // Empty selections: contradictory bounds, no positive age, and a
        // predicate specialization already proved false.
        assert!(and(age(Gt, 5), age(Lt, 5)).split_age_range().is_empty());
        assert!(and(age(Eq, 2), age(Eq, 3)).split_age_range().is_empty());
        assert!(age(Lt, 1).split_age_range().is_empty());
        assert!(age(Le, i64::MIN).split_age_range().is_empty());
        assert!(CompiledExpr::Const(false).split_age_range().is_empty());
        assert!(!age(Lt, 2).split_age_range().is_empty());

        // Not a range: `!=`, a strict bound with no neighbour, anything
        // under OR / NOT, AGE against a column.
        for e in [
            age(Ne, 3),
            age(Gt, i64::MAX),
            age(Lt, i64::MIN),
            CompiledExpr::Or(Box::new(age(Lt, 3)), Box::new(live())),
            CompiledExpr::Not(Box::new(age(Lt, 3))),
            CompiledExpr::Cmp(Lt, Scalar::Age, Scalar::IntAttr(1)),
        ] {
            assert_eq!(e.clone().split_age_range(), range(1, i64::MAX, Some(e)));
        }
    }

    /// The slot-bound selection of every user block ≡ evaluating the
    /// predicate row by row, for every shape `refine` distinguishes —
    /// including the two bindings that used to fall off the block path: a
    /// gid read specialization cannot turn into a code (two different
    /// string columns compared) and `AGE` outside a top-level bound.
    #[test]
    fn refine_selects_the_rows_eval_accepts() {
        let (t, c) = setup();
        let schema = t.schema();
        let shop = || Expr::attr("action").eq(Expr::lit_str("shop"));
        let predicates = [
            shop().and(Expr::attr("gold").gt(Expr::lit_int(3))),
            Expr::lit_int(40)
                .ge(Expr::attr("gold"))
                .and(Expr::attr("session").ne(Expr::lit_int(2))),
            Expr::attr("country").eq(Expr::attr("city")),
            Expr::attr("country").lt(Expr::attr("role")).or(shop()),
            Expr::attr("country").eq(Expr::birth("country")).and(shop()),
            Expr::birth("role").eq(Expr::lit_str("dwarf")),
            Expr::age().ne(Expr::lit_int(3)).and(shop().not()),
            Expr::age().lt(Expr::lit_int(4)).or(shop()),
            Expr::age().lt(Expr::attr("session")),
            Expr::attr("action").in_list([Value::str("shop"), Value::str("fight")]),
        ];
        for e in &predicates {
            let compiled = compile_predicate(e, schema, c.table_meta()).unwrap();
            let mut selected = 0;
            for chunk in c.chunks() {
                let cur = chunk.cursors();
                let spec = compiled.specialize(chunk);
                let mut cols = Vec::new();
                let bound = spec.bind_slots(&cur, &mut cols);
                for run in chunk.user_rle().runs() {
                    let birth_row = run.first as usize;
                    let (lo, hi) = (birth_row + 1, birth_row + run.count as usize);
                    let ages: Vec<u64> = (0..hi - lo).map(|i| 1 + i as u64 / 3).collect();
                    let bufs: Vec<Vec<u64>> = cols
                        .iter()
                        .map(|col| match *col {
                            SlotCol::Age => ages.clone(),
                            SlotCol::Attr(attr) => {
                                let mut buf = vec![0; hi - lo];
                                cur.unpack(attr, lo, hi, &mut buf);
                                buf
                            }
                        })
                        .collect();
                    let mut sel: Vec<u32> = (0..(hi - lo) as u32).collect();
                    bound.refine(&cur, birth_row, &bufs, &mut sel);
                    let expect: Vec<u32> = (0..hi - lo)
                        .filter(|&i| {
                            let age_units = ages[i] as i64;
                            spec.eval(&cur, &EvalCtx { row: lo + i, birth_row, age_units })
                        })
                        .map(|i| i as u32)
                        .collect();
                    assert_eq!(sel, expect, "`{e}` on the block at row {birth_row}");
                    selected += sel.len();
                }
            }
            assert!(selected > 0, "`{e}` selects nothing: the case is vacuous");
        }
    }

    #[test]
    fn open_rejects_integer_action_column() {
        // A chunk whose action position decodes as an integer segment is
        // corrupt: the executor must surface a typed error, not panic.
        let (_, c) = setup();
        let schema = c.schema();
        let arity = schema.arity();
        let mut cols: Vec<Option<ChunkColumn>> = (0..arity).map(|_| None).collect();
        cols[schema.time_idx()] = Some(ChunkColumn::from_ints(&[1000, 1001, 1002]));
        cols[schema.action_idx()] = Some(ChunkColumn::from_ints(&[1, 2, 3]));
        let chunk = Chunk::new(UserRle::from_rows(&[1, 1, 2]), cols).unwrap();
        let err = ChunkScan::open(c.table_meta(), &chunk, Some(0)).unwrap_err();
        assert!(matches!(err, EngineError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("action column"));
    }

    #[test]
    fn open_rejects_string_time_column() {
        let (_, c) = setup();
        let schema = c.schema();
        let arity = schema.arity();
        let mut cols: Vec<Option<ChunkColumn>> = (0..arity).map(|_| None).collect();
        cols[schema.time_idx()] = Some(ChunkColumn::from_gids(&[0, 1, 2]));
        cols[schema.action_idx()] = Some(ChunkColumn::from_gids(&[1, 2, 3]));
        let chunk = Chunk::new(UserRle::from_rows(&[1, 1, 2]), cols).unwrap();
        let err = ChunkScan::open(c.table_meta(), &chunk, None).unwrap_err();
        assert!(matches!(err, EngineError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("time column"));
    }

    #[test]
    fn compile_rejects_type_confusion() {
        let (t, c) = setup();
        let schema = t.schema();
        assert!(compile_predicate(
            &Expr::attr("gold").eq(Expr::lit_str("dwarf")),
            schema,
            c.table_meta()
        )
        .is_err());
        assert!(compile_predicate(&Expr::attr("role"), schema, c.table_meta()).is_err());
        assert!(compile_predicate(
            &Expr::attr("role").eq(Expr::attr("gold")),
            schema,
            c.table_meta()
        )
        .is_err());
    }
}
