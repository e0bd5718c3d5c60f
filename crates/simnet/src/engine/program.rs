//! The compiled form of an embedding, and the reusable memory its runs
//! execute in.
//!
//! A run of the active-set engine needs two kinds of state. Everything
//! that depends only on the tree list — the streams, the channel and
//! per-pair dataflow CSRs, the wake words, the per-tree topological
//! orders — is a [`WaveProgram`]: built once by [`WaveProgram::compile`]
//! and read-only afterwards. Everything a run mutates — stream rings,
//! active sets, progress counters — lives in an [`EngineArena`], which a
//! run resets instead of reallocating. Slice sizes, offsets, job bindings
//! and releases stay per run, so one program serves any vector length.
//!
//! [`Simulator::new`](super::Simulator::new) compiles its embedding and
//! runs in a fresh arena; [`Simulator::compiled`](super::Simulator::compiled)
//! runs a program the caller kept in an arena the caller kept. Both are
//! the same execution path: compile, reset, step.

use super::NONE;
use crate::embedding::{MultiTreeEmbedding, Phase, Stream};

/// The tree-only wiring of one embedding, compiled for the engine (see
/// the module docs). Immutable once built; any number of runs with any
/// slice layout may execute it.
#[derive(Debug, Clone)]
pub struct WaveProgram {
    pub(crate) n: usize,
    pub(crate) ntrees: usize,
    /// The logical streams, in embedding order (trace and fault layers
    /// report against them).
    pub(crate) streams: Vec<Stream>,
    pub(crate) tree_root: Vec<u32>,

    // Per-pair dataflow wiring: CSR slices into the id arenas.
    pub(crate) reduce_in_off: Vec<u32>,
    pub(crate) bcast_out_off: Vec<u32>,
    pub(crate) in_ids: Vec<u32>,
    pub(crate) out_ids: Vec<u32>,
    pub(crate) reduce_out: Vec<u32>,
    pub(crate) bcast_in: Vec<u32>,

    // Stream -> owning channel (for channel activation on staging).
    pub(crate) stream_chan: Vec<u32>,
    // Stream endpoint metadata for the bulk replay: source node and the
    // (tree·n + node) pair ids of both endpoints.
    pub(crate) stream_src_node: Vec<u32>,
    pub(crate) stream_src_pair: Vec<u32>,
    pub(crate) stream_dst_pair: Vec<u32>,
    // Per-tree children-first topological order (CSR): the bulk value
    // pass combines each node after all of its children.
    pub(crate) topo_off: Vec<u32>,
    pub(crate) topo_nodes: Vec<u32>,
    // Precomputed wake targets: the absolute `pair_active` word index and
    // bit mask of each stream's endpoint engines, so a flit event re-arms
    // an engine with a single indexed OR (no division on the hot path).
    pub(crate) wake_src_word: Vec<u32>,
    pub(crate) wake_src_mask: Vec<u64>,
    pub(crate) wake_dst_word: Vec<u32>,
    pub(crate) wake_dst_mask: Vec<u64>,
    // Per-stream back-pointer to the pair whose reduce-input readiness
    // count the stream feeds (`NONE` for broadcast streams).
    pub(crate) ready_slot: Vec<u32>,

    // CSR-flattened channel -> member streams map.
    pub(crate) chan_off: Vec<u32>,
    pub(crate) chan_members: Vec<u32>,

    pub(crate) words_per_tree: usize,
}

impl WaveProgram {
    /// Compiles the tree-only parts of `emb`. The embedding's slice sizes
    /// and offsets are not part of the program; runs supply their own.
    #[must_use]
    pub fn compile(emb: &MultiTreeEmbedding) -> Self {
        let n = emb.num_nodes as usize;
        let ntrees = emb.trees.len();
        let pairs = ntrees * n;
        let nstreams = emb.streams.len();
        let nchans = emb.channel_streams.len();

        // Wire the per-pair dataflow (two passes: counts, then fill).
        let mut in_cnt = vec![0u32; pairs];
        let mut out_cnt = vec![0u32; pairs];
        let mut reduce_out = vec![NONE; pairs];
        let mut bcast_in = vec![NONE; pairs];
        let mut src_pair = vec![0u32; nstreams];
        let mut dst_pair = vec![0u32; nstreams];
        for (si, s) in emb.streams.iter().enumerate() {
            let sp = s.tree as usize * n + s.src as usize;
            let dp = s.tree as usize * n + s.dst as usize;
            src_pair[si] = sp as u32;
            dst_pair[si] = dp as u32;
            match s.phase {
                Phase::Reduce => {
                    in_cnt[dp] += 1;
                    reduce_out[sp] = si as u32;
                }
                Phase::Broadcast => {
                    out_cnt[sp] += 1;
                    bcast_in[dp] = si as u32;
                }
            }
        }
        let mut reduce_in_off = vec![0u32; pairs + 1];
        let mut bcast_out_off = vec![0u32; pairs + 1];
        for p in 0..pairs {
            reduce_in_off[p + 1] = reduce_in_off[p] + in_cnt[p];
            bcast_out_off[p + 1] = bcast_out_off[p] + out_cnt[p];
        }
        let mut in_ids = vec![0u32; reduce_in_off[pairs] as usize];
        let mut out_ids = vec![0u32; bcast_out_off[pairs] as usize];
        let mut in_fill = reduce_in_off.clone();
        let mut out_fill = bcast_out_off.clone();
        for (si, s) in emb.streams.iter().enumerate() {
            match s.phase {
                Phase::Reduce => {
                    let dp = dst_pair[si] as usize;
                    in_ids[in_fill[dp] as usize] = si as u32;
                    in_fill[dp] += 1;
                }
                Phase::Broadcast => {
                    let sp = src_pair[si] as usize;
                    out_ids[out_fill[sp] as usize] = si as u32;
                    out_fill[sp] += 1;
                }
            }
        }

        // CSR-flatten the channel -> streams map.
        let mut chan_off = vec![0u32; nchans + 1];
        for (c, members) in emb.channel_streams.iter().enumerate() {
            chan_off[c + 1] = chan_off[c] + members.len() as u32;
        }
        let mut chan_members = vec![0u32; chan_off[nchans] as usize];
        let mut stream_chan = vec![NONE; nstreams];
        for (c, members) in emb.channel_streams.iter().enumerate() {
            let base = chan_off[c] as usize;
            chan_members[base..base + members.len()].copy_from_slice(members);
            for &s in members {
                stream_chan[s as usize] = c as u32;
            }
        }

        // Precompute each stream's wake word/mask and ready-count slot.
        let words_per_tree = n.div_ceil(64);
        let mut wake_src_word = vec![0u32; nstreams];
        let mut wake_src_mask = vec![0u64; nstreams];
        let mut wake_dst_word = vec![0u32; nstreams];
        let mut wake_dst_mask = vec![0u64; nstreams];
        let mut ready_slot = vec![NONE; nstreams];
        for (si, s) in emb.streams.iter().enumerate() {
            let base = s.tree as usize * words_per_tree;
            wake_src_word[si] = (base + s.src as usize / 64) as u32;
            wake_src_mask[si] = 1u64 << (s.src as usize % 64);
            wake_dst_word[si] = (base + s.dst as usize / 64) as u32;
            wake_dst_mask[si] = 1u64 << (s.dst as usize % 64);
            if matches!(s.phase, Phase::Reduce) {
                ready_slot[si] = dst_pair[si];
            }
        }

        // Per-tree children-first topological order for the bulk value
        // pass (a preorder DFS from the root, reversed). Every tree gets
        // one; a run skips the trees its layout leaves empty.
        let mut topo_off = vec![0u32; ntrees + 1];
        let mut topo_nodes: Vec<u32> = Vec::with_capacity(pairs);
        let mut stack: Vec<u32> = Vec::new();
        for (ti, t) in emb.trees.iter().enumerate() {
            let before = topo_nodes.len();
            stack.push(t.root);
            while let Some(v) = stack.pop() {
                topo_nodes.push(v);
                stack.extend_from_slice(&t.children[v as usize]);
            }
            topo_nodes[before..].reverse();
            topo_off[ti + 1] = topo_nodes.len() as u32;
        }

        WaveProgram {
            n,
            ntrees,
            streams: emb.streams.clone(),
            tree_root: emb.trees.iter().map(|t| t.root).collect(),
            reduce_in_off,
            bcast_out_off,
            in_ids,
            out_ids,
            reduce_out,
            bcast_in,
            stream_chan,
            stream_src_node: emb.streams.iter().map(|s| s.src).collect(),
            stream_src_pair: src_pair,
            stream_dst_pair: dst_pair,
            topo_off,
            topo_nodes,
            wake_src_word,
            wake_src_mask,
            wake_dst_word,
            wake_dst_mask,
            ready_slot,
            chan_off,
            chan_members,
            words_per_tree,
        }
    }

    /// Number of directed channels.
    pub(crate) fn num_channels(&self) -> usize {
        self.chan_off.len() - 1
    }

    /// The member streams of directed channel `c`, in arbitration order.
    pub(crate) fn channel_members(&self, c: usize) -> &[u32] {
        &self.chan_members[self.chan_off[c] as usize..self.chan_off[c + 1] as usize]
    }
}

/// Value written over the ring arenas at every reset in builds with debug
/// assertions. The engine reads a ring slot only after writing it in the
/// same run, so the poison never reaches a result; a read of a stale slot
/// would surface as a validation mismatch or a digest change in the
/// differential and reuse suites.
const RING_POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// The mutable memory of engine runs: stream rings, active sets, budgets,
/// progress counters and the bulk-replay scratch. A run resets what it
/// reads before writing — every head, length, counter and active bit, in
/// O(streams + pairs) — and reallocates only when the program or the
/// queue sizes call for a different length. Ring contents are not
/// cleared: no slot is read before the run writes it.
///
/// An arena may serve any sequence of programs and configurations,
/// including runs that ended incomplete; each run starts from the same
/// state a fresh arena gives it.
#[derive(Debug, Default)]
pub struct EngineArena {
    pub(crate) sendq_val: Vec<u64>,
    pub(crate) sendq_head: Vec<u32>,
    pub(crate) sendq_len: Vec<u32>,
    pub(crate) vc_arr: Vec<u64>,
    pub(crate) vc_val: Vec<u64>,
    pub(crate) vc_head: Vec<u32>,
    pub(crate) vc_arrived: Vec<u32>,
    pub(crate) vc_inflight: Vec<u32>,
    pub(crate) reduced: Vec<u64>,
    pub(crate) delivered: Vec<u64>,
    pub(crate) ready_in: Vec<u32>,
    pub(crate) rr: Vec<u32>,
    pub(crate) pair_active: Vec<u64>,
    pub(crate) chan_active: Vec<u64>,
    pub(crate) wire_active: Vec<u64>,
    pub(crate) engine_budget: Vec<u32>,
    pub(crate) engine_epoch: Vec<u64>,
    pub(crate) inject_budget: Vec<u32>,
    pub(crate) inject_epoch: Vec<u64>,
    pub(crate) rblock: Vec<u64>,
    pub(crate) rect_r: Vec<super::QRect>,
    pub(crate) rect_b: Vec<super::QRect>,
}

/// `v` resized to `len` and cleared: the state a fresh `vec![0; len]`
/// has, without reallocating when the capacity suffices. A buffer that
/// must grow is replaced (the old one freed first) by an allocation the
/// allocator hands out already zeroed.
pub(crate) fn zeroed<T: Copy + Default>(v: &mut Vec<T>, len: usize) -> &mut [T] {
    if v.capacity() < len {
        *v = Vec::new();
        *v = vec![T::default(); len];
    } else {
        v.clear();
        v.resize(len, T::default());
    }
    v
}

/// A ring arena resized to `len` slots. Contents are left as they are
/// (see [`EngineArena`]); debug builds poison them.
pub(crate) fn ring(v: &mut Vec<u64>, len: usize) -> &mut [u64] {
    if v.capacity() < len {
        zeroed(v, len);
    } else {
        v.resize(len, 0);
    }
    if cfg!(debug_assertions) {
        v.fill(RING_POISON);
    }
    v
}

/// A scratch buffer resized to `len`; every run writes an entry before
/// reading it.
pub(crate) fn scratch<T: Copy>(v: &mut Vec<T>, len: usize, fill: T) -> &mut [T] {
    v.resize(len, fill);
    v
}
