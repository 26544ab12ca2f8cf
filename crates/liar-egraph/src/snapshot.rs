//! Versioned, deterministic binary serialization of an e-graph.
//!
//! [`EGraph::snapshot`] freezes a **clean** (rebuilt) e-graph into a flat
//! byte vector: the union-find's raw parent table, every e-class's
//! canonical node arena and parent back-pointers, the analysis facts, the
//! hash-cons memo, and — when proof production is enabled — the full
//! explanation forest. [`EGraph::restore`] rebuilds an e-graph that is
//! *behaviorally identical*: the same canonical ids (before and after a
//! `rebuild()`), the same operator index, bit-identical extraction results
//! under every extractor and cost model, and replayable
//! [`Explanation`](crate::Explanation)s.
//!
//! # Format
//!
//! All integers are little-endian; ids are `u32` indices. Layout:
//!
//! ```text
//! magic    8 × u8   b"LIARSNAP"
//! version  u32      SNAPSHOT_VERSION
//! checksum u64      FNV-1a 64 of every byte after this field
//! flags    u8       bit 0: explanation forest present
//! strings  u32 n, then n × (u32 len, utf-8 bytes)   sorted, deduplicated
//! unionfind u32 n_ids, then n_ids × u32 parent      roots self-parenting
//! classes  u32 n, then per class (ascending id):
//!            u32 id, u32 n_nodes, nodes, u32 n_parents,
//!            n_parents × (node, u32 parent-id),
//!            analysis data                          see below
//! memo     u32 n, then n × (node, u32 id)           sorted by node
//! explain  (flag bit 0 only) u32 n_ids ×
//!            (node, u32 parent, u8 tag[, u32 rule-name], u8 forward),
//!          u32 n_uncanon, n × (node, u32 id)        sorted by node
//! ```
//!
//! A node is `u32 string-index, u32 arity, arity × u32 child-id`; the
//! string is its [`Language::display_op`] and restore re-parses it with
//! [`Language::from_op`] — the snapshot layer therefore requires the
//! language's textual syntax to round-trip (true of
//! [`SymbolLang`](crate::SymbolLang) and LIAR's array IR; languages
//! without `from_op` get a structured error, never a panic).
//!
//! # Analysis data
//!
//! Each class's *analysis data* is whatever its
//! [`SnapshotAnalysis::write_data`] writes. One `snapshot()` call threads
//! one [`SnapshotAnalysis::WriteState`] through every class, in ascending
//! id order, and one `restore()` call threads one
//! [`SnapshotAnalysis::ReadState`] through the matching
//! [`read_data`](SnapshotAnalysis::read_data) calls, so an analysis can
//! write structure that several classes share once and refer to it by
//! index afterwards. LIAR's array analysis writes its representative
//! terms that way: one table of term nodes for the whole snapshot, in
//! which each class adds the nodes no earlier class wrote (children
//! first: operator string, arity, earlier entries' indices), then names
//! its own representative's entry.
//!
//! # Determinism
//!
//! Every hash-map iteration is sorted before serialization, so the bytes
//! are a pure function of the e-graph's logical content and of what the
//! analysis writes: `snapshot(restore(s)) == s`, and equal requests
//! produce equal bytes — which is what lets a store content-address
//! snapshots by request fingerprint. (An analysis whose shared state
//! follows in-memory sharing, as LIAR's representative table does, must
//! restore that sharing, so that the restored graph writes it again.)
//!
//! Rule justifications serialize the rule *name* but not the matched
//! substitution: the substitution is diagnostic-only (proof checking
//! re-derives bindings by replaying the rule — see
//! [`Justification::Rule`]), so restored edges carry an empty one and
//! proofs replay bit-identically.
//!
//! # Versioning policy
//!
//! [`SNAPSHOT_VERSION`] is bumped on **any** layout or semantics change;
//! there is no cross-version migration — a reader that sees a foreign
//! version returns [`SnapshotError::VersionMismatch`] and the caller
//! re-saturates. Snapshots are a cache, not an archive format.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::explain::{Explain, Justification};
use crate::pattern::Subst;
use crate::unionfind::UnionFind;
use crate::{EClass, EGraph, FxHashMap, Id, Language};

/// The 8-byte magic prefix of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"LIARSNAP";

/// The current snapshot format version. Bumped on any layout or
/// semantics change; snapshots of other versions are rejected with
/// [`SnapshotError::VersionMismatch`] (re-saturating is always sound).
pub const SNAPSHOT_VERSION: u32 = 4;

/// A structured snapshot failure: every way `snapshot()`/`restore()` can
/// refuse, with enough context to log. Restore never panics on corrupt
/// bytes and never partially mutates anything — it either returns a fully
/// valid e-graph or this error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// `snapshot()` was called on a dirty e-graph (unions pending);
    /// call [`rebuild`](EGraph::rebuild) first.
    Dirty,
    /// The bytes do not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// The version recorded in the snapshot.
        found: u32,
        /// The version this reader understands ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The bytes end before a read completes.
    Truncated {
        /// Byte offset at which the read started.
        offset: usize,
        /// Bytes the read needed.
        wanted: usize,
    },
    /// The bytes decode to something structurally invalid (bad checksum,
    /// out-of-range id, unknown operator, cyclic parent table, …).
    Corrupt {
        /// Byte offset of the offending read.
        offset: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Dirty => {
                write!(f, "cannot snapshot a dirty e-graph: call rebuild() first")
            }
            SnapshotError::BadMagic => write!(f, "not a LIAR e-graph snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} is not the supported version {expected}"
            ),
            SnapshotError::Truncated { offset, wanted } => {
                write!(f, "snapshot truncated at byte {offset} (wanted {wanted} more)")
            }
            SnapshotError::Corrupt { offset, message } => {
                write!(f, "snapshot corrupt at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64 over `bytes` — the snapshot's integrity checksum (std-only;
/// not cryptographic, it exists to turn random corruption into a
/// structured error instead of a semantic surprise).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An append-only little-endian byte sink for snapshot sections.
/// [`SnapshotAnalysis::write_data`] implementors use it to serialize
/// per-class analysis facts.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Append one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a bool as one byte (`0`/`1`).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Append an optional `u64` as a presence byte plus the value.
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.write_u8(1);
                self.write_u64(x);
            }
            None => self.write_u8(0),
        }
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn write_id(&mut self, id: Id) {
        self.write_u32(id.index() as u32);
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked little-endian cursor over snapshot bytes. Every read
/// fails with [`SnapshotError::Truncated`] instead of panicking;
/// [`SnapshotAnalysis::read_data`] implementors use
/// [`corrupt`](SnapshotReader::corrupt) for their own validation errors.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapshotReader { bytes, pos: 0 }
    }

    /// The current byte offset (for error context).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// A [`SnapshotError::Corrupt`] at the current offset.
    pub fn corrupt(&self, message: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupt {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let out = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(SnapshotError::Truncated {
                offset: self.pos,
                wanted: n,
            }),
        }
    }

    /// Read one byte.
    pub fn read_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a strict bool (`0`/`1`; anything else is corrupt).
    pub fn read_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.corrupt(format!("bool byte must be 0 or 1, got {v}"))),
        }
    }

    /// Read an optional `u64` (presence byte plus value).
    pub fn read_opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        if self.read_bool()? {
            Ok(Some(self.read_u64()?))
        } else {
            Ok(None)
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String, SnapshotError> {
        let len = self.read_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.corrupt("string is not valid UTF-8"))
    }

    fn read_id(&mut self, n_ids: usize) -> Result<Id, SnapshotError> {
        let v = self.read_u32()? as usize;
        if v >= n_ids {
            return Err(self.corrupt(format!("id {v} out of range (graph has {n_ids} ids)")));
        }
        Ok(Id::from_index(v))
    }
}

/// An [`Analysis`](crate::Analysis) whose per-class facts can ride along
/// in a snapshot.
///
/// Facts must be **serialized**, not recomputed on restore: a semilattice
/// merge is only deterministic up to merge *order* (e.g. LIAR's
/// representative terms tie-break on arrival order), so recomputation
/// could silently change extraction results. `write_data`/`read_data`
/// must round-trip exactly.
///
/// Each `snapshot()` starts one [`WriteState`](Self::WriteState) and
/// passes it to every `write_data` call, class by class in ascending id
/// order; each `restore()` does the same with one
/// [`ReadState`](Self::ReadState) and `read_data`. Data that several
/// classes share can thus be written once and referenced by the classes
/// after it.
pub trait SnapshotAnalysis<L: Language>: crate::Analysis<L> {
    /// What one snapshot's `write_data` calls share.
    type WriteState: Default;

    /// What one restore's `read_data` calls share.
    type ReadState: Default;

    /// Serialize one class's fact.
    fn write_data(state: &mut Self::WriteState, data: &Self::Data, w: &mut SnapshotWriter);

    /// Deserialize one class's fact. Use
    /// [`SnapshotReader::corrupt`] for validation failures; never panic.
    fn read_data(
        state: &mut Self::ReadState,
        r: &mut SnapshotReader<'_>,
    ) -> Result<Self::Data, SnapshotError>;
}

impl<L: Language> SnapshotAnalysis<L> for () {
    type WriteState = ();
    type ReadState = ();

    fn write_data(_state: &mut (), _data: &Self::Data, _w: &mut SnapshotWriter) {}

    fn read_data(
        _state: &mut (),
        _r: &mut SnapshotReader<'_>,
    ) -> Result<Self::Data, SnapshotError> {
        Ok(())
    }
}

/// Serialize `node` against the sorted string table `index`.
fn write_node<L: Language>(w: &mut SnapshotWriter, index: &BTreeMap<String, u32>, node: &L) {
    w.write_u32(index[&node.display_op()]);
    w.write_u32(node.children().len() as u32);
    for c in node.children() {
        w.write_id(*c);
    }
}

/// Deserialize a node: re-parse its operator string with
/// [`Language::from_op`] over already-validated child ids.
fn read_node<L: Language>(
    r: &mut SnapshotReader<'_>,
    strings: &[String],
    n_ids: usize,
) -> Result<L, SnapshotError> {
    let idx = r.read_u32()? as usize;
    let op = strings
        .get(idx)
        .ok_or_else(|| r.corrupt(format!("string index {idx} out of range")))?;
    let arity = r.read_u32()? as usize;
    let mut children = Vec::with_capacity(arity.min(1 << 16));
    for _ in 0..arity {
        children.push(r.read_id(n_ids)?);
    }
    let err = |r: &SnapshotReader<'_>, e: String| r.corrupt(format!("node does not parse: {e}"));
    L::from_op(op, children).map_err(|e| err(r, e))
}

/// Check that a raw parent table is a forest: every chain reaches a
/// self-parenting root without revisiting a node. Both the union-find and
/// the explanation forest would loop forever on a cycle, so corrupt
/// tables must be rejected here. O(n).
fn validate_parent_forest(parents: &[Id], what: &str) -> Result<(), SnapshotError> {
    // 0 = unvisited, 1 = on the current chain, 2 = known-good.
    let mut state = vec![0u8; parents.len()];
    for start in 0..parents.len() {
        let mut chain = Vec::new();
        let mut i = start;
        loop {
            match state[i] {
                2 => break,
                1 => {
                    return Err(SnapshotError::Corrupt {
                        offset: 0,
                        message: format!("{what} parent table has a cycle through id {i}"),
                    })
                }
                _ => {}
            }
            state[i] = 1;
            chain.push(i);
            let p = parents[i].index();
            if p == i {
                break;
            }
            i = p;
        }
        for j in chain {
            state[j] = 2;
        }
    }
    Ok(())
}

impl<L: Language, A: SnapshotAnalysis<L>> EGraph<L, A> {
    /// Serialize this (clean) e-graph into a deterministic, versioned,
    /// checksummed byte vector — see the [module docs](self) for the
    /// format and determinism guarantees.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Dirty`] when unions are pending; call
    /// [`rebuild`](EGraph::rebuild) first.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        if !self.is_clean() {
            return Err(SnapshotError::Dirty);
        }

        // Pass 1: collect every operator string (and rule name) into a
        // sorted table, so nodes serialize as small indices and the bytes
        // are independent of hash-map iteration order.
        let classes = self.snapshot_classes();
        let mut set: BTreeSet<String> = BTreeSet::new();
        for class in classes.values() {
            for n in &class.nodes {
                set.insert(n.display_op());
            }
            for (p, _) in &class.parents {
                set.insert(p.display_op());
            }
        }
        for n in self.snapshot_memo().keys() {
            set.insert(n.display_op());
        }
        if let Some(explain) = self.snapshot_explain() {
            for (node, _, justification, _) in explain.forest() {
                set.insert(node.display_op());
                if let Justification::Rule { name, .. } = justification {
                    set.insert(name.to_string());
                }
            }
            for n in explain.uncanon_entries().keys() {
                set.insert(n.display_op());
            }
        }
        let strings: Vec<String> = set.into_iter().collect();
        let index: BTreeMap<String, u32> = strings
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();

        // Pass 2: write the payload (everything the checksum covers).
        let mut w = SnapshotWriter::default();
        let explain = self.snapshot_explain();
        w.write_u8(u8::from(explain.is_some()));

        w.write_u32(strings.len() as u32);
        for s in &strings {
            w.write_str(s);
        }

        let parents = self.snapshot_unionfind().parents();
        w.write_u32(parents.len() as u32);
        for p in parents {
            w.write_id(*p);
        }

        let mut ids: Vec<Id> = classes.keys().copied().collect();
        ids.sort_unstable();
        w.write_u32(ids.len() as u32);
        let mut state = A::WriteState::default();
        for id in ids {
            let class = &classes[&id];
            w.write_id(id);
            w.write_u32(class.nodes.len() as u32);
            for n in &class.nodes {
                write_node(&mut w, &index, n);
            }
            w.write_u32(class.parents.len() as u32);
            for (pnode, pid) in &class.parents {
                write_node(&mut w, &index, pnode);
                w.write_id(*pid);
            }
            A::write_data(&mut state, &class.data, &mut w);
        }

        let mut memo: Vec<(&L, Id)> = self.snapshot_memo().iter().map(|(n, i)| (n, *i)).collect();
        memo.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.write_u32(memo.len() as u32);
        for (node, id) in memo {
            write_node(&mut w, &index, node);
            w.write_id(id);
        }

        if let Some(explain) = explain {
            for (node, parent, justification, forward) in explain.forest() {
                write_node(&mut w, &index, node);
                w.write_id(parent);
                match justification {
                    Justification::Direct => w.write_u8(0),
                    Justification::Congruence => w.write_u8(1),
                    Justification::Rule { name, .. } => {
                        w.write_u8(2);
                        w.write_u32(index[name.as_ref()]);
                    }
                }
                w.write_bool(forward);
            }
            let mut uncanon: Vec<(&L, Id)> = explain
                .uncanon_entries()
                .iter()
                .map(|(n, i)| (n, *i))
                .collect();
            uncanon.sort_unstable_by(|a, b| a.0.cmp(b.0));
            w.write_u32(uncanon.len() as u32);
            for (node, id) in uncanon {
                write_node(&mut w, &index, node);
                w.write_id(id);
            }
        }

        let payload = w.into_bytes();
        let mut out = Vec::with_capacity(payload.len() + 20);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Rebuild an e-graph from snapshot bytes. The result is behaviorally
    /// identical to the graph that produced them (see the
    /// [module docs](self)); `analysis` supplies the analysis *instance*
    /// (configuration and caches — per-class facts come from the bytes).
    ///
    /// Restore is a pure constructor: on any error nothing was mutated,
    /// and corrupt bytes can never panic — every read is bounds-checked,
    /// both parent tables are cycle-checked, and the payload is protected
    /// by a checksum, so a bit flip anywhere yields a structured
    /// [`SnapshotError`].
    ///
    /// # Errors
    ///
    /// Every [`SnapshotError`] variant except
    /// [`Dirty`](SnapshotError::Dirty).
    pub fn restore(analysis: A, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        if r.take(8)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.read_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let checksum = r.read_u64()?;
        if fnv1a(&bytes[r.offset()..]) != checksum {
            return Err(r.corrupt("payload checksum mismatch"));
        }

        let flags = r.read_u8()?;
        if flags & !1 != 0 {
            return Err(r.corrupt(format!("unknown flag bits {flags:#x}")));
        }
        let has_explain = flags & 1 != 0;

        let n_strings = r.read_u32()? as usize;
        let mut strings = Vec::with_capacity(n_strings.min(1 << 16));
        for _ in 0..n_strings {
            strings.push(r.read_str()?);
        }

        let n_ids = r.read_u32()? as usize;
        let mut parents = Vec::with_capacity(n_ids.min(1 << 20));
        for _ in 0..n_ids {
            parents.push(r.read_id(n_ids)?);
        }
        validate_parent_forest(&parents, "union-find")?;
        let unionfind = UnionFind::from_parents(parents);

        let n_classes = r.read_u32()? as usize;
        if n_classes > n_ids {
            return Err(r.corrupt(format!("{n_classes} classes but only {n_ids} ids")));
        }
        let mut classes: FxHashMap<Id, EClass<L, A::Data>> =
            FxHashMap::with_capacity_and_hasher(n_classes.min(1 << 20), Default::default());
        let mut prev: Option<Id> = None;
        let mut state = A::ReadState::default();
        for _ in 0..n_classes {
            let id = r.read_id(n_ids)?;
            if prev.is_some_and(|p| p >= id) {
                return Err(r.corrupt(format!("class ids not strictly ascending at {id}")));
            }
            prev = Some(id);
            if unionfind.find(id) != id {
                return Err(r.corrupt(format!("class id {id} is not canonical")));
            }
            let n_nodes = r.read_u32()? as usize;
            let mut nodes = Vec::with_capacity(n_nodes.min(1 << 16));
            for _ in 0..n_nodes {
                nodes.push(read_node::<L>(&mut r, &strings, n_ids)?);
            }
            let n_parents = r.read_u32()? as usize;
            let mut class_parents = Vec::with_capacity(n_parents.min(1 << 16));
            for _ in 0..n_parents {
                let pnode = read_node::<L>(&mut r, &strings, n_ids)?;
                let pid = r.read_id(n_ids)?;
                class_parents.push((pnode, pid));
            }
            let data = A::read_data(&mut state, &mut r)?;
            classes.insert(
                id,
                EClass {
                    id,
                    nodes,
                    data,
                    parents: class_parents,
                },
            );
        }
        // Every issued id must resolve to a stored class, or later
        // `class()` lookups would panic.
        for i in 0..n_ids {
            let root = unionfind.find(Id::from_index(i));
            if !classes.contains_key(&root) {
                return Err(r.corrupt(format!("id {i} resolves to missing class {root}")));
            }
        }

        let n_memo = r.read_u32()? as usize;
        let mut memo: HashMap<L, Id> = HashMap::with_capacity(n_memo.min(1 << 20));
        for _ in 0..n_memo {
            let node = read_node::<L>(&mut r, &strings, n_ids)?;
            let id = r.read_id(n_ids)?;
            memo.insert(node, id);
        }

        let explain = if has_explain {
            let mut forest = Vec::with_capacity(n_ids);
            let mut forest_parents = Vec::with_capacity(n_ids);
            for _ in 0..n_ids {
                let node = read_node::<L>(&mut r, &strings, n_ids)?;
                let parent = r.read_id(n_ids)?;
                let tag = r.read_u8()?;
                let justification = match tag {
                    0 => Justification::Direct,
                    1 => Justification::Congruence,
                    2 => {
                        let idx = r.read_u32()? as usize;
                        let name = strings
                            .get(idx)
                            .ok_or_else(|| r.corrupt(format!("rule-name index {idx} bad")))?;
                        Justification::Rule {
                            name: Arc::from(name.as_str()),
                            // The matched substitution is diagnostic-only
                            // (never read by proof production or checking)
                            // and is not serialized.
                            subst: Arc::new(Subst::default()),
                        }
                    }
                    t => return Err(r.corrupt(format!("unknown justification tag {t}"))),
                };
                let forward = r.read_bool()?;
                forest_parents.push(parent);
                forest.push((node, parent, justification, forward));
            }
            validate_parent_forest(&forest_parents, "explanation forest")?;
            let n_uncanon = r.read_u32()? as usize;
            let mut uncanon = HashMap::with_capacity(n_uncanon.min(1 << 20));
            for _ in 0..n_uncanon {
                let node = read_node::<L>(&mut r, &strings, n_ids)?;
                let id = r.read_id(n_ids)?;
                uncanon.insert(node, id);
            }
            Some(Explain::from_parts(forest, uncanon))
        } else {
            None
        };

        if r.offset() != bytes.len() {
            return Err(r.corrupt(format!(
                "{} trailing bytes after the last section",
                bytes.len() - r.offset()
            )));
        }

        Ok(EGraph::from_snapshot_parts(
            analysis, unionfind, memo, classes, explain,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AstSize, Extractor, Pattern, Rewrite, Runner, SymbolLang};

    type EG = EGraph<SymbolLang, ()>;

    fn saturated(expr: &str, explain: bool) -> (EG, Id) {
        let egraph: EG = if explain {
            EGraph::default().with_explanations_enabled()
        } else {
            EGraph::default()
        };
        let rules = vec![
            Rewrite::new(
                "comm",
                "(+ ?a ?b)".parse::<Pattern<SymbolLang>>().unwrap(),
                "(+ ?b ?a)".parse::<Pattern<SymbolLang>>().unwrap(),
            ),
            Rewrite::new(
                "mul2-shift",
                "(* ?x 2)".parse::<Pattern<SymbolLang>>().unwrap(),
                "(<< ?x 1)".parse::<Pattern<SymbolLang>>().unwrap(),
            ),
        ];
        let mut runner = Runner::new(egraph).with_iter_limit(4);
        let root = runner.egraph.add_expr(&expr.parse().unwrap());
        runner.egraph.rebuild();
        runner.run(&rules);
        let root = runner.egraph.find(root);
        (runner.egraph, root)
    }

    fn assert_same_graph(a: &EG, b: &EG) {
        assert_eq!(a.num_classes(), b.num_classes());
        assert_eq!(a.num_nodes(), b.num_nodes());
        let ca = a.classes_sorted();
        let cb = b.classes_sorted();
        for (x, y) in ca.iter().zip(cb.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.nodes, y.nodes);
        }
        b.assert_invariants();
    }

    #[test]
    fn round_trip_preserves_classes_and_index() {
        let (egraph, root) = saturated("(+ (* a 2) (g b))", false);
        let bytes = egraph.snapshot().unwrap();
        let restored = EG::restore((), &bytes).unwrap();
        assert_same_graph(&egraph, &restored);
        assert_eq!(restored.find(root), root);
        // Operator index answers identically.
        let key = SymbolLang::new("+", vec![Id::from_index(0), Id::from_index(0)]).op_key();
        assert_eq!(egraph.classes_with_op(key), restored.classes_with_op(key));
        // Extraction is bit-identical.
        let (c0, b0) = Extractor::new(&egraph, AstSize).find_best(root);
        let (c1, b1) = Extractor::new(&restored, AstSize).find_best(root);
        assert_eq!(c0, c1);
        assert_eq!(b0, b1);
    }

    #[test]
    fn restored_graph_rebuilds_to_the_same_ids() {
        let (egraph, _) = saturated("(+ (* a 2) (g b))", false);
        let bytes = egraph.snapshot().unwrap();
        let mut restored = EG::restore((), &bytes).unwrap();
        let before: Vec<Id> = restored.class_ids();
        restored.rebuild();
        assert_eq!(restored.class_ids(), before);
        restored.assert_invariants();
    }

    #[test]
    fn snapshot_after_restore_is_idempotent() {
        for explain in [false, true] {
            let (egraph, _) = saturated("(+ (* a 2) (g b))", explain);
            let bytes = egraph.snapshot().unwrap();
            let restored = EG::restore((), &bytes).unwrap();
            assert_eq!(restored.snapshot().unwrap(), bytes, "explain={explain}");
        }
    }

    #[test]
    fn explanations_survive_a_restore() {
        let (mut egraph, _) = saturated("(+ (* a 2) (g b))", true);
        let left = "(+ (* a 2) (g b))".parse().unwrap();
        let right = "(+ (g b) (<< a 1))".parse().unwrap();
        let proof = egraph.explain_equivalence(&left, &right);
        let bytes = egraph.snapshot().unwrap();
        let mut restored = EG::restore((), &bytes).unwrap();
        assert!(restored.are_explanations_enabled());
        let replayed = restored.explain_equivalence(&left, &right);
        assert_eq!(proof.source, replayed.source);
        assert_eq!(proof.target, replayed.target);
        assert_eq!(proof.steps, replayed.steps);
    }

    #[test]
    fn dirty_graphs_refuse_to_snapshot() {
        let mut egraph: EG = EGraph::default();
        let a = egraph.add_expr(&"(f a)".parse().unwrap());
        let b = egraph.add_expr(&"(f b)".parse().unwrap());
        egraph.union(a, b);
        assert_eq!(egraph.snapshot(), Err(SnapshotError::Dirty));
        egraph.rebuild();
        assert!(egraph.snapshot().is_ok());
    }

    #[test]
    fn truncation_at_every_length_is_a_structured_error() {
        let (egraph, _) = saturated("(+ (* a 2) (g b))", true);
        let bytes = egraph.snapshot().unwrap();
        for len in 0..bytes.len() {
            let err = EG::restore((), &bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::Corrupt { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::VersionMismatch { .. }
                ),
                "truncation to {len} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let (egraph, _) = saturated("(+ a b)", true);
        let bytes = egraph.snapshot().unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    EG::restore((), &flipped).is_err(),
                    "flip of byte {byte} bit {bit} restored successfully"
                );
            }
        }
    }

    #[test]
    fn version_mismatch_is_reported() {
        let (egraph, _) = saturated("(+ a b)", false);
        let mut bytes = egraph.snapshot().unwrap();
        bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 7).to_le_bytes());
        assert_eq!(
            EG::restore((), &bytes).unwrap_err(),
            SnapshotError::VersionMismatch {
                found: SNAPSHOT_VERSION + 7,
                expected: SNAPSHOT_VERSION
            }
        );
        assert_eq!(EG::restore((), b"not a snapshot at all").unwrap_err(), {
            SnapshotError::BadMagic
        });
    }

    #[test]
    fn cyclic_parent_tables_are_rejected() {
        assert!(validate_parent_forest(
            &[Id::from_index(1), Id::from_index(0)],
            "union-find"
        )
        .is_err());
        assert!(validate_parent_forest(
            &[Id::from_index(0), Id::from_index(0), Id::from_index(1)],
            "union-find"
        )
        .is_ok());
    }
}
