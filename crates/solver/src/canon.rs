//! Model canonicalization: renaming-invariant fingerprints.
//!
//! Two synthesis requests that differ only in index/array *names* lower to
//! solver models that are identical up to a permutation of the variable
//! list (the tile variables are created in `RangeMap` order, which is
//! name-sorted) and a reordering of commutative operands. This module
//! computes a canonical form that quotients out exactly those
//! differences, so a synthesis cache can recognize the two requests as
//! the same solver work:
//!
//! * **names are dropped** — variable and constraint display names never
//!   enter the canonical form;
//! * **variables are colored** by Weisfeiler-Lehman-style iterative
//!   refinement: the initial color is the variable's domain, and each
//!   round folds in *where* the variable occurs (the hash of every
//!   objective/constraint expression with that variable's occurrences
//!   marked). Variables that end with equal colors are structurally
//!   interchangeable for every distinction the refinement could make;
//! * **commutative operands are sorted** — `Add`/`Mul` children are
//!   ordered by their own canonical hashes, and the constraint *set* is
//!   hashed as a sorted multiset, so statement-order-preserving rewrites
//!   of the lowering do not change the fingerprint. `Sub`, `CeilDiv` and
//!   `Select` options keep their (semantically meaningful) order;
//! * the hash is [`Fnv64`] (FNV-1a), a fixed published function — stable
//!   across processes, platforms and releases, unlike
//!   `DefaultHasher`.
//!
//! The canonical *order* ([`CanonicalModel::order`]) sorts variables by
//! final color. A solution point stored in canonical order can be
//! permuted into any model with the same fingerprint; when two variables
//! share a color the mapping between them is arbitrary, which is sound
//! exactly when they are automorphic. Cache consumers must therefore
//! re-validate a replayed point against their own model (cheap) — see
//! `tce-cache`.
//!
//! Like WL graph refinement, the coloring is a sound but incomplete
//! isomorphism test: renamed models always collide (by construction),
//! and distinct models separate unless they are WL-equivalent, which
//! does not occur for the synthesis encodings (domains, constants and
//! occurrence structure differ).

use crate::model::{ConstraintOp, Domain, Expr, Model, VarId};

/// Version tag folded into every fingerprint; bump on any change to the
/// canonical form so stale cache entries can never replay.
pub const CANON_VERSION: &str = "tce-canon/v1";

/// FNV-1a 64-bit — stable across processes and releases.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Folds one byte into the state.
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Folds a byte slice into the state.
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// Folds a `u64` (little-endian bytes) into the state.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds an `i64` into the state.
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by bit pattern, normalizing `-0.0` to `0.0` and
    /// every NaN to the canonical quiet NaN.
    pub fn f64(&mut self, v: f64) {
        let v = if v == 0.0 {
            0.0
        } else if v.is_nan() {
            f64::NAN
        } else {
            v
        };
        self.u64(v.to_bits());
    }

    /// Folds a string (length-prefixed) into the state.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Convenience: FNV-1a of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(bytes);
    h.finish()
}

/// Renders a fingerprint as the 16-digit lowercase hex the cache uses
/// for file names and reports.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// The canonical view of a [`Model`].
#[derive(Clone, Debug)]
pub struct CanonicalModel {
    /// Renaming-invariant 64-bit fingerprint of the model.
    pub fingerprint: u64,
    /// Final refinement color of each variable, indexed by [`VarId`].
    pub colors: Vec<u64>,
    /// Variables sorted into canonical order: `order[k]` is the variable
    /// occupying canonical slot `k` (sorted by color, ties by id).
    pub order: Vec<VarId>,
    /// Inverse of [`CanonicalModel::order`]: `slot[v.as_usize()]` is the
    /// canonical slot of variable `v`.
    pub slot: Vec<usize>,
}

impl CanonicalModel {
    /// The fingerprint as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        fingerprint_hex(self.fingerprint)
    }

    /// Reorders a point from model order into canonical order.
    pub fn to_canonical(&self, point: &[i64]) -> Vec<i64> {
        self.order.iter().map(|v| point[v.as_usize()]).collect()
    }

    /// Reorders a canonical-order point back into model order.
    pub fn from_canonical(&self, canonical: &[i64]) -> Vec<i64> {
        let mut out = vec![0i64; canonical.len()];
        for (k, v) in self.order.iter().enumerate() {
            out[v.as_usize()] = canonical[k];
        }
        out
    }
}

/// Hash of a domain (the initial refinement color).
fn domain_hash(d: Domain) -> u64 {
    let mut h = Fnv64::new();
    match d {
        Domain::Int { lo, hi } => {
            h.byte(1);
            h.i64(lo);
            h.i64(hi);
        }
        Domain::Binary => h.byte(2),
    }
    h.finish()
}

/// What a hashed node is; the byte tags are the ones the FNV stream has
/// always used (`1` const … `7` select).
#[derive(Clone, Copy, Debug)]
enum Op {
    Const(f64),
    Var(VarId),
    Add,
    Mul,
    Sub,
    CeilDiv,
    Select(VarId),
}

/// One node of a flattened expression; its children are
/// `ExprArena::kids[kids.0..kids.1]`.
#[derive(Clone, Copy, Debug)]
struct Node {
    op: Op,
    kids: (u32, u32),
}

/// A top-level expression: the objective, or a constraint with the FNV
/// state after its sense, rhs and scale (the prefix of its hash).
#[derive(Clone, Copy, Debug)]
struct Root {
    node: u32,
    prefix: Option<Fnv64>,
}

impl Root {
    /// The root's hash given its expression's hash: the expression hash
    /// itself for the objective, the constraint hash otherwise.
    fn hash(&self, expr: u64) -> u64 {
        match self.prefix {
            None => expr,
            Some(mut h) => {
                h.u64(expr);
                h.finish()
            }
        }
    }
}

/// Marker hashed in place of the color of the variable being refined.
const MARK: u64 = u64::MAX ^ 0x5eed;

/// The objective and every constraint flattened once into post-order
/// (children before parents), plus an occurrence index: for each
/// variable, the nodes and roots whose subtree mentions it. Refining a
/// variable then re-hashes only those nodes; every other node's marked
/// hash equals its plain hash.
struct ExprArena {
    nodes: Vec<Node>,
    kids: Vec<u32>,
    /// The objective first, then the constraints in model order.
    roots: Vec<Root>,
    /// Nodes that mention some variable, ascending: the only nodes whose
    /// hash changes when the colors do.
    varying: Vec<u32>,
    /// Per variable, the nodes that mention it, ascending.
    occ_nodes: Vec<Vec<u32>>,
    /// Per variable, the roots whose expression mentions it.
    occ_roots: Vec<Vec<u32>>,
}

impl ExprArena {
    fn build(model: &Model) -> ExprArena {
        let mut arena = ExprArena {
            nodes: Vec::new(),
            kids: Vec::new(),
            roots: Vec::new(),
            varying: Vec::new(),
            occ_nodes: vec![Vec::new(); model.num_vars()],
            occ_roots: vec![Vec::new(); model.num_vars()],
        };
        // sorted variable set of each node, only while building
        let mut vars: Vec<Vec<u32>> = Vec::new();
        let obj = arena.push(&model.objective, &mut vars);
        arena.roots.push(Root {
            node: obj,
            prefix: None,
        });
        for c in model.constraints() {
            let node = arena.push(&c.expr, &mut vars);
            let mut h = Fnv64::new();
            h.byte(op_tag(c.op));
            h.f64(c.rhs);
            h.f64(c.scale);
            arena.roots.push(Root {
                node,
                prefix: Some(h),
            });
        }
        for (i, set) in vars.iter().enumerate() {
            if !set.is_empty() {
                arena.varying.push(i as u32);
            }
            for &v in set {
                arena.occ_nodes[v as usize].push(i as u32);
            }
        }
        for (r, root) in arena.roots.iter().enumerate() {
            for &v in &vars[root.node as usize] {
                arena.occ_roots[v as usize].push(r as u32);
            }
        }
        arena
    }

    /// Appends `e` in post-order and returns its node id; `vars[id]` is
    /// the sorted set of variables the subtree mentions.
    fn push(&mut self, e: &Expr, vars: &mut Vec<Vec<u32>>) -> u32 {
        let (op, children): (Op, &[Expr]) = match e {
            Expr::Const(c) => (Op::Const(*c), &[]),
            Expr::Var(v) => (Op::Var(*v), &[]),
            Expr::Add(es) => (Op::Add, es),
            Expr::Mul(es) => (Op::Mul, es),
            Expr::Sub(a, b) => return self.push_node(Op::Sub, [&**a, &**b], vars),
            Expr::CeilDiv(a, b) => return self.push_node(Op::CeilDiv, [&**a, &**b], vars),
            Expr::Select(v, opts) => (Op::Select(*v), opts),
        };
        self.push_node(op, children, vars)
    }

    fn push_node<'e>(
        &mut self,
        op: Op,
        children: impl IntoIterator<Item = &'e Expr>,
        vars: &mut Vec<Vec<u32>>,
    ) -> u32 {
        let ids: Vec<u32> = children.into_iter().map(|c| self.push(c, vars)).collect();
        let mut set: Vec<u32> = ids
            .iter()
            .flat_map(|&c| vars[c as usize].iter().copied())
            .collect();
        if let Op::Var(v) | Op::Select(v) = op {
            set.push(v.0);
        }
        set.sort_unstable();
        set.dedup();
        let lo = self.kids.len() as u32;
        self.kids.extend(ids);
        self.nodes.push(Node {
            op,
            kids: (lo, self.kids.len() as u32),
        });
        vars.push(set);
        self.nodes.len() as u32 - 1
    }

    /// Canonical hash of node `i` under `colors`, reading each child's
    /// hash through `child`. Occurrences of `mark` hash to [`MARK`]
    /// instead of their color — this is how refinement sees *where* a
    /// variable sits. `Add`/`Mul` children are folded in sorted order.
    fn node_hash(
        &self,
        i: u32,
        colors: &[u64],
        mark: Option<VarId>,
        child: impl Fn(u32) -> u64,
        scratch: &mut Vec<u64>,
    ) -> u64 {
        let var = |v: VarId| -> u64 {
            if mark == Some(v) {
                MARK
            } else {
                colors[v.as_usize()]
            }
        };
        let node = self.nodes[i as usize];
        let kids = &self.kids[node.kids.0 as usize..node.kids.1 as usize];
        let mut h = Fnv64::new();
        match node.op {
            Op::Const(c) => {
                h.byte(1);
                h.f64(c);
            }
            Op::Var(v) => {
                h.byte(2);
                h.u64(var(v));
            }
            Op::Add | Op::Mul => {
                h.byte(if matches!(node.op, Op::Add) { 3 } else { 4 });
                scratch.clear();
                scratch.extend(kids.iter().map(|&c| child(c)));
                scratch.sort_unstable();
                for &x in scratch.iter() {
                    h.u64(x);
                }
            }
            Op::Sub | Op::CeilDiv => {
                h.byte(if matches!(node.op, Op::Sub) { 5 } else { 6 });
                for &c in kids {
                    h.u64(child(c));
                }
            }
            Op::Select(v) => {
                h.byte(7);
                h.u64(var(v));
                h.u64(kids.len() as u64);
                for &c in kids {
                    h.u64(child(c));
                }
            }
        }
        h.finish()
    }

    /// Re-hashes the nodes `ids` (ascending) plain, under `colors`.
    fn rehash(&self, ids: impl Iterator<Item = u32>, colors: &[u64], plain: &mut [u64]) {
        let mut scratch = Vec::new();
        for i in ids {
            plain[i as usize] =
                self.node_hash(i, colors, None, |c| plain[c as usize], &mut scratch);
        }
    }
}

fn op_tag(op: ConstraintOp) -> u8 {
    match op {
        ConstraintOp::Le => 1,
        ConstraintOp::Eq => 2,
        ConstraintOp::Ge => 3,
    }
}

/// Computes the canonical form of a model.
///
/// Runs WL refinement until the variable partition stops refining (at
/// most `num_vars` rounds), then hashes the colored structure. Each round
/// hashes every node plain once, then for each variable re-hashes only
/// the nodes that mention it (see [`ExprArena`]), so a round costs
/// `O(model size + Σ_v nodes mentioning v)`.
pub fn canonicalize(model: &Model) -> CanonicalModel {
    let n = model.num_vars();
    let mut colors: Vec<u64> = model.vars().iter().map(|v| domain_hash(v.domain)).collect();

    let distinct = |cs: &[u64]| -> usize {
        let mut s: Vec<u64> = cs.to_vec();
        s.sort_unstable();
        s.dedup();
        s.len()
    };

    let arena = ExprArena::build(model);
    let len = arena.nodes.len();
    // plain hashes under the current colors; variable-free nodes are
    // hashed once here and never change
    let mut plain = vec![0u64; len];
    arena.rehash(0..len as u32, &colors, &mut plain);
    // marked hashes of the variable being refined: `marked[i]` is valid
    // exactly when `stamp[i] == pass`
    let mut marked = vec![0u64; len];
    let mut stamp = vec![0u32; len];
    let mut pass = 0u32;
    let mut scratch = Vec::new();
    let mut sig: Vec<(u64, u64)> = Vec::new();
    let obj_role = {
        let mut role = Fnv64::new();
        role.str("obj");
        role.finish()
    };

    let mut classes = distinct(&colors);
    for _round in 0..n.max(1) {
        let root_plain: Vec<u64> = arena
            .roots
            .iter()
            .map(|r| r.hash(plain[r.node as usize]))
            .collect();
        let mut next = Vec::with_capacity(n);
        for v in 0..n {
            pass += 1;
            let var = VarId(v as u32);
            for &i in &arena.occ_nodes[v] {
                let h = arena.node_hash(
                    i,
                    &colors,
                    Some(var),
                    |c| {
                        if stamp[c as usize] == pass {
                            marked[c as usize]
                        } else {
                            plain[c as usize]
                        }
                    },
                    &mut scratch,
                );
                marked[i as usize] = h;
                stamp[i as usize] = pass;
            }
            // the variable's signature: every top-level expression hashed
            // with this variable's occurrences marked, as a sorted multiset
            // (paired with the expression's own role hash so "appears in
            // the objective" and "appears in constraint shaped X" differ).
            // Roots that do not mention the variable hash the same marked
            // or plain, so only the indexed ones can contribute.
            sig.clear();
            for &r in &arena.occ_roots[v] {
                let root = &arena.roots[r as usize];
                let marked_root = root.hash(marked[root.node as usize]);
                let plain_root = root_plain[r as usize];
                if marked_root != plain_root {
                    let role = if root.prefix.is_none() {
                        obj_role
                    } else {
                        plain_root
                    };
                    sig.push((role, marked_root));
                }
            }
            sig.sort_unstable();
            let mut h = Fnv64::new();
            h.u64(colors[v]);
            h.u64(sig.len() as u64);
            for &(role, marked) in &sig {
                h.u64(role);
                h.u64(marked);
            }
            next.push(h.finish());
        }
        let next_classes = distinct(&next);
        colors = next;
        arena.rehash(arena.varying.iter().copied(), &colors, &mut plain);
        if next_classes == classes {
            break;
        }
        classes = next_classes;
    }

    // canonical order: by color, ties by original id (tied variables are
    // interchangeable as far as the refinement could see)
    let mut order: Vec<VarId> = (0..n as u32).map(VarId).collect();
    order.sort_by_key(|v| (colors[v.as_usize()], v.0));
    let mut slot = vec![0usize; n];
    for (k, v) in order.iter().enumerate() {
        slot[v.as_usize()] = k;
    }

    // fingerprint of the fully colored structure
    let mut h = Fnv64::new();
    h.str(CANON_VERSION);
    h.u64(n as u64);
    for v in &order {
        h.u64(colors[v.as_usize()]);
        let mut dh = Fnv64::new();
        dh.u64(domain_hash(model.vars()[v.as_usize()].domain));
        h.u64(dh.finish());
    }
    let root_hash = |r: &Root| r.hash(plain[r.node as usize]);
    h.u64(root_hash(&arena.roots[0]));
    let mut cons: Vec<u64> = arena.roots[1..].iter().map(root_hash).collect();
    cons.sort_unstable();
    h.u64(cons.len() as u64);
    for c in cons {
        h.u64(c);
    }

    CanonicalModel {
        fingerprint: h.finish(),
        colors,
        order,
        slot,
    }
}

/// Rewrites an expression's variable ids through `map`.
fn map_expr(e: &Expr, map: &[VarId]) -> Expr {
    match e {
        Expr::Const(c) => Expr::Const(*c),
        Expr::Var(v) => Expr::Var(map[v.as_usize()]),
        Expr::Add(es) => Expr::Add(es.iter().map(|c| map_expr(c, map)).collect()),
        Expr::Mul(es) => Expr::Mul(es.iter().map(|c| map_expr(c, map)).collect()),
        Expr::Sub(a, b) => Expr::Sub(Box::new(map_expr(a, map)), Box::new(map_expr(b, map))),
        Expr::CeilDiv(a, b) => {
            Expr::CeilDiv(Box::new(map_expr(a, map)), Box::new(map_expr(b, map)))
        }
        Expr::Select(v, opts) => Expr::Select(
            map[v.as_usize()],
            opts.iter().map(|o| map_expr(o, map)).collect(),
        ),
    }
}

/// Builds the model with its variable list permuted: new variable `j` is
/// old variable `perm[j]`, renamed `v<j>`. This is exactly the shape a
/// renamed synthesis request produces (tile variables are created in
/// name order), so tests use it to check fingerprint invariance.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..model.num_vars()`.
pub fn permuted_model(model: &Model, perm: &[usize]) -> Model {
    let n = model.num_vars();
    assert_eq!(perm.len(), n, "permutation length");
    // old id -> new id
    let mut to_new = vec![VarId(u32::MAX); n];
    for (new, &old) in perm.iter().enumerate() {
        assert!(to_new[old].0 == u32::MAX, "duplicate entry in permutation");
        to_new[old] = VarId(new as u32);
    }
    let mut out = Model::new();
    for (new, &old) in perm.iter().enumerate() {
        out.add_var(format!("v{new}"), model.vars()[old].domain);
    }
    out.objective = map_expr(&model.objective, &to_new);
    for c in model.constraints() {
        let mut mapped = c.clone();
        mapped.expr = map_expr(&c.expr, &to_new);
        mapped.name = format!("c_{}", out.constraints().len());
        out.constraints_mut().push(mapped);
    }
    out
}

/// The original, non-incremental refinement: every round re-hashes the
/// whole objective and every constraint twice per variable. Kept as the
/// oracle the occurrence-indexed [`canonicalize`] must match bit for bit.
#[cfg(test)]
mod reference {
    use super::{domain_hash, op_tag, CanonicalModel, Fnv64, CANON_VERSION};
    use crate::model::{Expr, Model, VarId};

    /// Canonical hash of an expression under the given variable colors.
    /// When `mark` is `Some(v)`, occurrences of `v` hash to a marker instead
    /// of their color — this is how refinement sees *where* a variable sits.
    fn expr_hash(e: &Expr, colors: &[u64], mark: Option<VarId>) -> u64 {
        let var = |v: VarId| -> u64 {
            if mark == Some(v) {
                u64::MAX ^ 0x5eed
            } else {
                colors[v.as_usize()]
            }
        };
        let mut h = Fnv64::new();
        match e {
            Expr::Const(c) => {
                h.byte(1);
                h.f64(*c);
            }
            Expr::Var(v) => {
                h.byte(2);
                h.u64(var(*v));
            }
            Expr::Add(es) | Expr::Mul(es) => {
                h.byte(if matches!(e, Expr::Add(_)) { 3 } else { 4 });
                let mut hs: Vec<u64> = es.iter().map(|c| expr_hash(c, colors, mark)).collect();
                hs.sort_unstable();
                for x in hs {
                    h.u64(x);
                }
            }
            Expr::Sub(a, b) => {
                h.byte(5);
                h.u64(expr_hash(a, colors, mark));
                h.u64(expr_hash(b, colors, mark));
            }
            Expr::CeilDiv(a, b) => {
                h.byte(6);
                h.u64(expr_hash(a, colors, mark));
                h.u64(expr_hash(b, colors, mark));
            }
            Expr::Select(v, opts) => {
                h.byte(7);
                h.u64(var(*v));
                h.u64(opts.len() as u64);
                for o in opts {
                    h.u64(expr_hash(o, colors, mark));
                }
            }
        }
        h.finish()
    }

    /// Hash of one constraint (sense, rhs, scale, expression) under colors.
    fn constraint_hash(model: &Model, j: usize, colors: &[u64], mark: Option<VarId>) -> u64 {
        let c = &model.constraints()[j];
        let mut h = Fnv64::new();
        h.byte(op_tag(c.op));
        h.f64(c.rhs);
        h.f64(c.scale);
        h.u64(expr_hash(&c.expr, colors, mark));
        h.finish()
    }

    /// Computes the canonical form of a model.
    ///
    /// Runs WL refinement until the variable partition stops refining (at
    /// most `num_vars` rounds), then hashes the colored structure. Cost is
    /// `O(rounds · vars · model size)` — microseconds at synthesis scale.
    pub fn canonicalize(model: &Model) -> CanonicalModel {
        let n = model.num_vars();
        let mut colors: Vec<u64> = model.vars().iter().map(|v| domain_hash(v.domain)).collect();

        let distinct = |cs: &[u64]| -> usize {
            let mut s: Vec<u64> = cs.to_vec();
            s.sort_unstable();
            s.dedup();
            s.len()
        };

        let mut classes = distinct(&colors);
        for _round in 0..n.max(1) {
            let mut next = Vec::with_capacity(n);
            for v in 0..n {
                let v = VarId(v as u32);
                // the variable's signature: every top-level expression hashed
                // with this variable's occurrences marked, as a sorted multiset
                // (paired with the expression's own role hash so "appears in
                // the objective" and "appears in constraint shaped X" differ)
                let mut sig: Vec<(u64, u64)> = Vec::new();
                let obj_marked = expr_hash(&model.objective, &colors, Some(v));
                let obj_plain = expr_hash(&model.objective, &colors, None);
                if obj_marked != obj_plain {
                    let mut role = Fnv64::new();
                    role.str("obj");
                    sig.push((role.finish(), obj_marked));
                }
                for j in 0..model.constraints().len() {
                    let marked = constraint_hash(model, j, &colors, Some(v));
                    let plain = constraint_hash(model, j, &colors, None);
                    if marked != plain {
                        sig.push((plain, marked));
                    }
                }
                sig.sort_unstable();
                let mut h = Fnv64::new();
                h.u64(colors[v.as_usize()]);
                h.u64(sig.len() as u64);
                for (role, marked) in sig {
                    h.u64(role);
                    h.u64(marked);
                }
                next.push(h.finish());
            }
            let next_classes = distinct(&next);
            colors = next;
            if next_classes == classes {
                break;
            }
            classes = next_classes;
        }

        // canonical order: by color, ties by original id (tied variables are
        // interchangeable as far as the refinement could see)
        let mut order: Vec<VarId> = (0..n as u32).map(VarId).collect();
        order.sort_by_key(|v| (colors[v.as_usize()], v.0));
        let mut slot = vec![0usize; n];
        for (k, v) in order.iter().enumerate() {
            slot[v.as_usize()] = k;
        }

        // fingerprint of the fully colored structure
        let mut h = Fnv64::new();
        h.str(CANON_VERSION);
        h.u64(n as u64);
        for v in &order {
            h.u64(colors[v.as_usize()]);
            let mut dh = Fnv64::new();
            dh.u64(domain_hash(model.vars()[v.as_usize()].domain));
            h.u64(dh.finish());
        }
        h.u64(expr_hash(&model.objective, &colors, None));
        let mut cons: Vec<u64> = (0..model.constraints().len())
            .map(|j| constraint_hash(model, j, &colors, None))
            .collect();
        cons.sort_unstable();
        h.u64(cons.len() as u64);
        for c in cons {
            h.u64(c);
        }

        CanonicalModel {
            fingerprint: h.finish(),
            colors,
            order,
            slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Domain, Expr, Model};
    use proptest::prelude::*;

    fn sample_model() -> Model {
        // minimize ceil(100/t) + 3·u·t  s.t.  t ≤ 17,  u·t ≤ 40
        let mut m = Model::new();
        let t = m.add_var("t", Domain::Int { lo: 1, hi: 100 });
        let u = m.add_var("u", Domain::Int { lo: 1, hi: 50 });
        let b = m.add_var("b", Domain::Binary);
        m.objective = Expr::Add(vec![
            Expr::CeilDiv(Box::new(Expr::Const(100.0)), Box::new(Expr::Var(t))),
            Expr::Mul(vec![Expr::Const(3.0), Expr::Var(u), Expr::Var(t)]),
            Expr::Select(b, vec![Expr::Const(0.0), Expr::Var(u)]),
        ]);
        m.add_constraint("cap", Expr::Var(t), ConstraintOp::Le, 17.0);
        m.add_constraint(
            "mem",
            Expr::Mul(vec![Expr::Var(u), Expr::Var(t)]),
            ConstraintOp::Le,
            40.0,
        );
        m
    }

    #[test]
    fn fingerprint_invariant_under_permutation() {
        let m = sample_model();
        let base = canonicalize(&m);
        for perm in [[2usize, 0, 1], [1, 2, 0], [2, 1, 0], [0, 2, 1]] {
            let p = permuted_model(&m, &perm);
            let c = canonicalize(&p);
            assert_eq!(c.fingerprint, base.fingerprint, "perm {perm:?}");
        }
    }

    #[test]
    fn fingerprint_invariant_under_operand_reordering() {
        let mut m = sample_model();
        let base = canonicalize(&m).fingerprint;
        // reverse Add operands and swap constraint order
        if let Expr::Add(es) = &mut m.objective {
            es.reverse();
        }
        m.constraints_mut().reverse();
        assert_eq!(canonicalize(&m).fingerprint, base);
    }

    #[test]
    fn fingerprint_separates_distinct_models() {
        let m = sample_model();
        let base = canonicalize(&m).fingerprint;
        let mut changed_rhs = sample_model();
        changed_rhs.constraints_mut()[0].rhs = 18.0;
        changed_rhs.constraints_mut()[0].scale = 18.0;
        assert_ne!(canonicalize(&changed_rhs).fingerprint, base);

        let mut changed_dom = sample_model();
        changed_dom.vars_mut()[1].domain = Domain::Int { lo: 1, hi: 51 };
        assert_ne!(canonicalize(&changed_dom).fingerprint, base);

        let mut changed_obj = sample_model();
        changed_obj.objective = Expr::Const(1.0);
        assert_ne!(canonicalize(&changed_obj).fingerprint, base);
    }

    #[test]
    fn point_round_trips_through_canonical_order() {
        let m = sample_model();
        let c = canonicalize(&m);
        let point = vec![17, 2, 1];
        let canon = c.to_canonical(&point);
        assert_eq!(c.from_canonical(&canon), point);
    }

    #[test]
    fn canonical_point_transfers_between_renamed_models() {
        let m = sample_model();
        let cm = canonicalize(&m);
        let perm = [2usize, 0, 1];
        let p = permuted_model(&m, &perm);
        let cp = canonicalize(&p);
        // a feasible point of m, moved through canonical order into p,
        // evaluates identically there
        let point = vec![10, 4, 1];
        let transferred = cp.from_canonical(&cm.to_canonical(&point));
        assert_eq!(m.objective_at(&point), p.objective_at(&transferred));
        assert_eq!(m.violations(&point), p.violations(&transferred));
    }

    #[test]
    fn hex_rendering_is_16_digits() {
        let m = sample_model();
        let c = canonicalize(&m);
        let hex = c.hex();
        assert_eq!(hex.len(), 16);
        assert!(hex.chars().all(|ch| ch.is_ascii_hexdigit()));
    }

    /// A splitmix64 stream: random models need no more than that.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random expression over `n` variables. Constants come from a
    /// small pool (signed zeros included) and earlier subtrees are reused,
    /// so repeated and variable-free subtrees are common.
    fn random_expr(g: &mut Gen, n: usize, depth: u32, seen: &mut Vec<Expr>) -> Expr {
        const CONSTS: [f64; 6] = [0.0, -0.0, 1.0, 2.0, 3.5, 64.0];
        let leaf = depth == 0 || g.below(4) == 0;
        let e = match (leaf, g.below(8)) {
            (_, 0) if !seen.is_empty() => seen[g.below(seen.len() as u64) as usize].clone(),
            (true, k) if k % 2 == 0 || n == 0 => Expr::Const(CONSTS[g.below(6) as usize]),
            (true, _) => Expr::Var(VarId(g.below(n as u64) as u32)),
            (false, k) => {
                let mut kids = |g: &mut Gen, count: u64| -> Vec<Expr> {
                    (0..count)
                        .map(|_| random_expr(g, n, depth - 1, seen))
                        .collect()
                };
                match k {
                    1 | 2 => {
                        let count = 1 + g.below(4);
                        Expr::Add(kids(g, count))
                    }
                    3 | 4 => {
                        let count = 1 + g.below(4);
                        Expr::Mul(kids(g, count))
                    }
                    5 => {
                        let ab = kids(g, 2);
                        let [a, b] = <[Expr; 2]>::try_from(ab).expect("two kids");
                        Expr::Sub(Box::new(a), Box::new(b))
                    }
                    6 => {
                        let ab = kids(g, 2);
                        let [a, b] = <[Expr; 2]>::try_from(ab).expect("two kids");
                        Expr::CeilDiv(Box::new(a), Box::new(b))
                    }
                    _ if n > 0 => {
                        let v = VarId(g.below(n as u64) as u32);
                        let count = 1 + g.below(3);
                        Expr::Select(v, kids(g, count))
                    }
                    _ => Expr::Add(kids(g, 2)),
                }
            }
        };
        seen.push(e.clone());
        e
    }

    /// A random model: up to 7 variables over a few shared domains (so
    /// colors tie), a random objective and up to 5 random constraints.
    fn random_model(seed: u64) -> Model {
        let mut g = Gen(seed);
        let mut m = Model::new();
        let n = g.below(8) as usize;
        for v in 0..n {
            let domain = match g.below(3) {
                0 => Domain::Binary,
                1 => Domain::Int { lo: 1, hi: 16 },
                _ => Domain::Int { lo: 0, hi: 4 },
            };
            m.add_var(format!("x{v}"), domain);
        }
        let mut seen = Vec::new();
        m.objective = random_expr(&mut g, n, 4, &mut seen);
        for j in 0..g.below(6) {
            let expr = random_expr(&mut g, n, 3, &mut seen);
            let op = match g.below(3) {
                0 => ConstraintOp::Le,
                1 => ConstraintOp::Eq,
                _ => ConstraintOp::Ge,
            };
            m.add_constraint(format!("c{j}"), expr, op, g.below(4) as f64 * 8.0);
        }
        m
    }

    fn assert_matches_reference(m: &Model) -> Result<(), TestCaseError> {
        let fast = canonicalize(m);
        let slow = reference::canonicalize(m);
        prop_assert_eq!(fast.fingerprint, slow.fingerprint);
        prop_assert_eq!(&fast.colors, &slow.colors);
        prop_assert_eq!(&fast.order, &slow.order);
        prop_assert_eq!(&fast.slot, &slow.slot);
        Ok(())
    }

    #[test]
    fn sample_model_matches_reference() {
        assert_matches_reference(&sample_model()).expect("sample model");
        assert_matches_reference(&Model::new()).expect("empty model");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The occurrence-indexed refinement is bit-identical to the
        /// original whole-model re-hash, on models and on their renamings.
        #[test]
        fn incremental_refinement_matches_reference(seed in 0u64..u64::MAX, perm_seed in 0u64..u64::MAX) {
            let m = random_model(seed);
            assert_matches_reference(&m)?;
            let mut g = Gen(perm_seed);
            let mut perm: Vec<usize> = (0..m.num_vars()).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, g.below(i as u64 + 1) as usize);
            }
            assert_matches_reference(&permuted_model(&m, &perm))?;
        }
    }

    #[test]
    fn fnv_is_stable() {
        // published FNV-1a test vector
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
