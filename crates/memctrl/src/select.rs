//! O(log n) bank-scheduler selection structures (ISSUE 6 tentpole).
//!
//! A bank scheduler that re-ranks its whole queue on every evaluation
//! pays O(n) per decision, the scaling wall for thousand-tenant share
//! trees. This module keeps the queue in an index-keyed structure that
//! selects exactly what that ranking would (same winner, same
//! tie-breaks, same `VftBound` event order):
//!
//! * [`IndexedHeap`] — a binary min-heap over `(key, id)` pairs with an
//!   external slot→position index, giving O(log n) insert/remove/re-key
//!   and O(1) peek;
//! * [`TournamentTree`] — a flat complete-binary-tree tournament over
//!   *row groups*, giving O(1) global minimum and O(log g) minimum
//!   excluding one group (the open row's hit group);
//! * `BankQueue` (crate-private) — the per-bank pending queue: a
//!   stable-slot slab plus a tombstoned admission-order list, with one
//!   `(read, write)` heap pair per distinct row *and priority tier*, and
//!   one tournament over the groups per tier;
//! * `ThreadTiers` (crate-private) — each thread's current tier and its
//!   queued entries, so a tier flip moves only that thread's entries.
//!
//! # Why this decomposition is exact
//!
//! The priority order ([`crate::policy::Priority`]) ranks candidates by
//! `(ready, tier, cas, key, id)`. Within one bank evaluation all
//! surviving candidates are ready, so the ranking reduces to: the lowest
//! tier holding any ready candidate wins; within it any ready CAS
//! (open-row hit) beats any ready RAS, then the smallest `(key, id)`
//! wins. Hits to the open row `r` in tier `t` are exactly the members of
//! row group `r`'s tier-`t` heaps, so the best hit is that heap pair's
//! minimum (per CAS kind, gated on that kind's bank readiness); the best
//! precharge candidate of tier `t` is the tier-`t` tournament minimum
//! over every *other* group (`min_excluding`); the best activate
//! candidate on a closed bank is the tier-`t` global minimum. Resolving
//! tier 0's CAS then RAS class before tier 1's is the lexicographic
//! order itself. `(key, id)` pairs are unique (admission ids are strictly
//! monotonic), so the winner is independent of heap layout — a
//! rebuilt-on-restore heap with renumbered slots selects identically.
//!
//! The index stays exact only while every entry sits in its thread's
//! *current* tier. Tiers change at exactly four points — a BLISS
//! blacklisting or clearing, a regulator bucket exhausting or
//! replenishing — and the controller calls `ThreadTiers::set` at each
//! of them, which moves the flipped thread's queued entries between the
//! tier structures before the next scheduling pass.

use crate::request::MemoryRequest;
use std::cmp::Ordering;
use std::collections::HashMap;

/// A pending request plus its lazily bound virtual finish time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    pub(crate) req: MemoryRequest,
    pub(crate) vft: Option<f64>,
    /// RAS commands issued for this request so far (0 at admission);
    /// classifies the service it received: CAS with 0 prior = row hit,
    /// 1 = closed bank, 2 = bank conflict.
    pub(crate) ras_issued: u8,
}

/// A selection key: the scheduler's ranking pair `(key, id)` where `key`
/// is an arrival time or virtual finish time and `id` the admission-order
/// tiebreaker. Ordered exactly like [`crate::policy::Priority`] orders
/// candidates within one readiness/CAS class: smaller key first, then
/// smaller id; incomparable keys (impossible for the finite virtual
/// times the scheduler produces) compare equal, deferring to the id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelKey {
    /// Arrival time (FCFS variants) or virtual finish time (VFTF).
    pub key: f64,
    /// Admission-order tiebreaker; unique across all live requests.
    pub id: u64,
}

impl Eq for SelKey {}

impl PartialOrd for SelKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SelKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .partial_cmp(&other.key)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// Marker for "slot not present in this heap" in the external position
/// index shared by all heaps of one `BankQueue`.
pub const NO_POS: u32 = u32::MAX;

/// A binary min-heap of `(SelKey, slot)` items with an *external*
/// slot-indexed position map, supporting O(log n) removal of an
/// arbitrary slot.
///
/// The position map is external (`&mut Vec<u32>`, indexed by slot,
/// [`NO_POS`] = absent) so one slab-sized map can be shared by every
/// heap a queue owns: a slot lives in at most one heap at a time, which
/// keeps the total index memory O(slab) instead of O(heaps × slab).
#[derive(Debug, Clone, Default)]
pub struct IndexedHeap {
    items: Vec<(SelKey, u32)>,
}

impl IndexedHeap {
    /// An empty heap.
    pub fn new() -> Self {
        IndexedHeap::default()
    }

    /// Number of items in the heap.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the heap holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The minimum `(key, slot)` without removing it.
    pub fn peek(&self) -> Option<(SelKey, u32)> {
        self.items.first().copied()
    }

    /// Inserts `slot` with `key`. Grows `pos` to cover `slot` if needed.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `slot` is already present.
    pub fn insert(&mut self, pos: &mut Vec<u32>, slot: u32, key: SelKey) {
        if pos.len() <= slot as usize {
            pos.resize(slot as usize + 1, NO_POS);
        }
        debug_assert_eq!(pos[slot as usize], NO_POS, "slot {slot} already indexed");
        self.items.push((key, slot));
        let i = self.items.len() - 1;
        pos[slot as usize] = i as u32;
        self.sift_up(pos, i);
    }

    /// Removes `slot` from the heap. Returns false when absent.
    pub fn remove(&mut self, pos: &mut [u32], slot: u32) -> bool {
        let Some(&p) = pos.get(slot as usize) else {
            return false;
        };
        if p == NO_POS {
            return false;
        }
        let i = p as usize;
        pos[slot as usize] = NO_POS;
        let last = self.items.len() - 1;
        if i != last {
            self.items.swap(i, last);
            self.items.pop();
            pos[self.items[i].1 as usize] = i as u32;
            // The swapped-in item may violate the heap property in either
            // direction relative to its new neighbourhood.
            self.sift_up(pos, i);
            self.sift_down(pos, i);
        } else {
            self.items.pop();
        }
        true
    }

    /// Re-keys `slot` in place (O(log n)).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `slot` is absent.
    pub fn update(&mut self, pos: &mut [u32], slot: u32, key: SelKey) {
        let i = pos[slot as usize];
        debug_assert_ne!(i, NO_POS, "slot {slot} not in heap");
        let i = i as usize;
        self.items[i].0 = key;
        self.sift_up(pos, i);
        self.sift_down(pos, i);
    }

    fn sift_up(&mut self, pos: &mut [u32], mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.items[i].0 < self.items[parent].0 {
                self.items.swap(i, parent);
                pos[self.items[i].1 as usize] = i as u32;
                pos[self.items[parent].1 as usize] = parent as u32;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, pos: &mut [u32], mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < self.items.len() && self.items[l].0 < self.items[smallest].0 {
                smallest = l;
            }
            if r < self.items.len() && self.items[r].0 < self.items[smallest].0 {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.items.swap(i, smallest);
            pos[self.items[i].1 as usize] = i as u32;
            pos[self.items[smallest].1 as usize] = smallest as u32;
            i = smallest;
        }
    }
}

/// A value competing in the [`TournamentTree`]: the group's best
/// `(key, slot)` pair, compared by key ([`SelKey`] pairs are unique, so
/// the slot never breaks a tie).
pub type TreeVal = (SelKey, u32);

fn tree_min(a: Option<TreeVal>, b: Option<TreeVal>) -> Option<TreeVal> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if y.0 < x.0 { y } else { x }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// A flat tournament (complete binary tree) over a growing set of
/// leaves, each holding an optional [`TreeVal`].
///
/// * [`TournamentTree::min`] — the overall winner, O(1);
/// * [`TournamentTree::min_excluding`] — the winner with one leaf masked
///   out, O(log g) by walking the masked leaf's root path and combining
///   the sibling subtree winners;
/// * [`TournamentTree::set`] — replay one leaf's matches up the tree,
///   O(log g).
///
/// Leaves are allocated once and never freed (an emptied row group's
/// leaf reads `None` until the queue recycles it for a new row);
/// capacity doubles with a rebuild, amortized O(1) per allocation.
#[derive(Debug, Clone)]
pub struct TournamentTree {
    /// 1-based complete tree: `nodes[1]` is the root, leaf `l` lives at
    /// `nodes[cap + l]`. `nodes.len() == 2 * cap` (empty, allocation-free,
    /// until the first leaf).
    nodes: Vec<Option<TreeVal>>,
    cap: usize,
    leaves: usize,
}

impl Default for TournamentTree {
    fn default() -> Self {
        TournamentTree::new()
    }
}

impl TournamentTree {
    /// An empty tournament with no leaves.
    pub fn new() -> Self {
        TournamentTree {
            nodes: Vec::new(),
            cap: 0,
            leaves: 0,
        }
    }

    /// Number of allocated leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaves
    }

    /// Allocates the next leaf (initially `None`) and returns its index.
    pub fn push_leaf(&mut self) -> u32 {
        if self.leaves == self.cap {
            self.grow();
        }
        let leaf = self.leaves;
        self.leaves += 1;
        leaf as u32
    }

    fn grow(&mut self) {
        let new_cap = (self.cap * 2).max(1);
        let mut nodes = vec![None; 2 * new_cap];
        nodes[new_cap..new_cap + self.leaves]
            .clone_from_slice(&self.nodes[self.cap..self.cap + self.leaves]);
        for n in (1..new_cap).rev() {
            nodes[n] = tree_min(nodes[2 * n], nodes[2 * n + 1]);
        }
        self.nodes = nodes;
        self.cap = new_cap;
    }

    /// Sets leaf `leaf`'s value and replays its matches to the root.
    pub fn set(&mut self, leaf: u32, v: Option<TreeVal>) {
        debug_assert!((leaf as usize) < self.leaves, "leaf {leaf} not allocated");
        let mut n = self.cap + leaf as usize;
        self.nodes[n] = v;
        while n > 1 {
            n /= 2;
            self.nodes[n] = tree_min(self.nodes[2 * n], self.nodes[2 * n + 1]);
        }
    }

    /// The overall winner across all leaves.
    pub fn min(&self) -> Option<TreeVal> {
        self.nodes.get(1).copied().flatten()
    }

    /// The winner with leaf `leaf` masked out: combines the sibling
    /// subtree winners along the masked leaf's root path.
    pub fn min_excluding(&self, leaf: u32) -> Option<TreeVal> {
        debug_assert!((leaf as usize) < self.leaves, "leaf {leaf} not allocated");
        let mut n = self.cap + leaf as usize;
        let mut acc = None;
        while n > 1 {
            acc = tree_min(acc, self.nodes[n ^ 1]);
            n /= 2;
        }
        acc
    }
}

/// One row group's candidate heaps, split by CAS kind so the hit lookup
/// can honour per-kind bank readiness (a ready read must not be hidden
/// behind an earlier not-ready write, and vice versa).
#[derive(Debug, Clone, Default)]
struct Group {
    read: IndexedHeap,
    write: IndexedHeap,
}

impl Group {
    fn best(&self) -> Option<TreeVal> {
        tree_min(self.read.peek(), self.write.peek())
    }

    /// The heap an entry of `p`'s kind belongs to.
    fn heap_mut(&mut self, p: &Pending) -> &mut IndexedHeap {
        if p.req.kind.is_read() {
            &mut self.read
        } else {
            &mut self.write
        }
    }
}

/// Number of priority tiers the index keeps (see
/// [`crate::policy::Priority::tier`]): 0 is premium, 1 demoted.
pub(crate) const TIERS: usize = 2;

/// The per-bank pending-request queue.
///
/// Storage is a stable-slot slab (`slots` + LIFO free list): a request
/// keeps its slot for its whole residence, so `Proposal::source` can
/// name it across cycles without the index churn of `Vec::remove`.
/// Admission order — which the FCFS ablation, fault-drop victim
/// selection, and the snapshot byte format all need — is a separate
/// `(slot, id)` list with lazy tombstones: a pair is live iff the slot
/// still holds a request with that id (slot reuse bumps the id; ids are
/// strictly monotonic). Dead pairs are compacted when they outnumber
/// live ones, keeping iteration amortized O(live).
///
/// Every *keyed* entry (one whose selection key is known: arrival-keyed
/// schedulers key at push; VFTF schedulers key at VFT binding) sits in
/// its row group's heap for its tier, and each tier has a tournament
/// over the groups. Unkeyed entries wait in the `unbound` list (same
/// tombstone scheme) until the scheduler's bind pre-pass keys them in
/// admission order.
#[derive(Debug, Clone)]
pub(crate) struct BankQueue {
    /// Keys are virtual finish times (VFTF schedulers) rather than
    /// arrival times; entries are keyed lazily at VFT binding.
    vftf: bool,
    slots: Vec<Option<Pending>>,
    /// Priority tier of each slot's entry (derived state: never
    /// serialized, rebuilt on restore).
    tiers: Vec<u8>,
    free: Vec<u32>,
    live: usize,
    /// Admission-order `(slot, id)` pairs with lazy tombstones.
    order: Vec<(u32, u64)>,
    order_dead: usize,
    /// Admission-order `(slot, id)` pairs of entries awaiting a key
    /// (VFTF schedulers only).
    unbound: Vec<(u32, u64)>,
    /// Row -> group id, for rows with a keyed entry. An emptied group is
    /// released and its id (with its tournament leaves, all `None`)
    /// recycled through `free_groups`, so the group count tracks the
    /// distinct rows queued, not every row ever seen.
    group_of_row: HashMap<u32, u32>,
    free_groups: Vec<u32>,
    /// Per group, one heap pair per tier.
    groups: Vec<[Group; TIERS]>,
    /// Per tier, a tournament over the groups (leaf `g` is group `g`).
    trees: [TournamentTree; TIERS],
    /// Shared slot→heap-position index (each slot is in ≤ 1 heap).
    heap_pos: Vec<u32>,
}

impl BankQueue {
    pub(crate) fn new(vftf: bool) -> Self {
        BankQueue {
            vftf,
            slots: Vec::new(),
            tiers: Vec::new(),
            free: Vec::new(),
            live: 0,
            order: Vec::new(),
            order_dead: 0,
            unbound: Vec::new(),
            group_of_row: HashMap::new(),
            free_groups: Vec::new(),
            groups: Vec::new(),
            trees: Default::default(),
            heap_pos: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The selection key of an entry, when known: arrival time for
    /// arrival-keyed schedulers, the bound VFT (if any) for VFTF ones.
    fn key_of(&self, p: &Pending) -> Option<f64> {
        if self.vftf {
            p.vft
        } else {
            Some(p.req.arrival.as_f64())
        }
    }

    /// Admits an entry at `tier` (at the back of the admission order)
    /// and returns its slot.
    pub(crate) fn push(&mut self, p: Pending, tier: u8) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.tiers.push(0);
            (self.slots.len() - 1) as u32
        });
        debug_assert!(self.slots[slot as usize].is_none());
        let id = p.req.id.as_u64();
        self.slots[slot as usize] = Some(p);
        self.tiers[slot as usize] = tier;
        self.live += 1;
        self.order.push((slot, id));
        match self.key_of(&p) {
            Some(key) => self.index_insert(slot, key, &p),
            None => self.unbound.push((slot, id)),
        }
        slot
    }

    /// Removes the entry at `slot` and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub(crate) fn remove(&mut self, slot: u32) -> Pending {
        let p = self.slots[slot as usize].take().expect("live slot");
        self.live -= 1;
        self.free.push(slot);
        self.order_dead += 1;
        // Unkeyed entries leave a tombstone in `unbound`, cleaned by the
        // next bind pre-pass (the id check spots slot reuse).
        if self.key_of(&p).is_some() {
            self.index_remove(slot, &p);
        }
        if self.order_dead > self.order.len() / 2 && self.order.len() > 32 {
            let slots = &self.slots;
            self.order.retain(
                |&(s, id)| matches!(&slots[s as usize], Some(q) if q.req.id.as_u64() == id),
            );
            self.order_dead = 0;
        }
        p
    }

    /// Replays group `gid`'s tier-`tier` matches after a heap change.
    fn refresh_leaf(&mut self, gid: u32, tier: u8) {
        let val = self.groups[gid as usize][tier as usize].best();
        self.trees[tier as usize].set(gid, val);
    }

    fn index_remove(&mut self, slot: u32, p: &Pending) {
        let row = p.req.addr.row.as_u32();
        let gid = self.group_of_row[&row];
        let tier = self.tiers[slot as usize];
        self.groups[gid as usize][tier as usize]
            .heap_mut(p)
            .remove(&mut self.heap_pos, slot);
        self.refresh_leaf(gid, tier);
        // Release an emptied group: every tier's leaf already reads
        // `None`, so the id can serve the next new row.
        if self.groups[gid as usize].iter().all(|g| g.best().is_none()) {
            self.group_of_row.remove(&row);
            self.free_groups.push(gid);
        }
    }

    fn index_insert(&mut self, slot: u32, key: f64, p: &Pending) {
        let row = p.req.addr.row.as_u32();
        let gid = match self.group_of_row.get(&row) {
            Some(&g) => g,
            None => {
                let g = self.free_groups.pop().unwrap_or_else(|| {
                    let g = self.trees[0].push_leaf();
                    for tree in &mut self.trees[1..] {
                        tree.push_leaf();
                    }
                    debug_assert_eq!(g as usize, self.groups.len());
                    self.groups.push(Default::default());
                    g
                });
                self.group_of_row.insert(row, g);
                g
            }
        };
        let sel = SelKey {
            key,
            id: p.req.id.as_u64(),
        };
        let tier = self.tiers[slot as usize];
        self.groups[gid as usize][tier as usize]
            .heap_mut(p)
            .insert(&mut self.heap_pos, slot, sel);
        self.refresh_leaf(gid, tier);
    }

    /// Shared access to the entry at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub(crate) fn get(&self, slot: u32) -> &Pending {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    /// Mutable access to the entry at `slot`. Callers must not mutate
    /// fields the index keys on (`vft` — bind via
    /// [`BankQueue::drain_unbound`] instead); `ras_issued` is never a
    /// key and is safe to bump.
    pub(crate) fn get_mut(&mut self, slot: u32) -> &mut Pending {
        self.slots[slot as usize].as_mut().expect("live slot")
    }

    /// Whether `slot` still holds the request with admission id `id`.
    pub(crate) fn holds(&self, slot: u32, id: u64) -> bool {
        matches!(
            self.slots.get(slot as usize),
            Some(Some(p)) if p.req.id.as_u64() == id
        )
    }

    /// The priority tier of the entry at `slot`.
    pub(crate) fn tier(&self, slot: u32) -> u8 {
        self.tiers[slot as usize]
    }

    /// Moves the entry at `slot` to `tier` (O(log n) when keyed).
    pub(crate) fn set_tier(&mut self, slot: u32, tier: u8) {
        if self.tiers[slot as usize] == tier {
            return;
        }
        let p = *self.get(slot);
        match self.key_of(&p) {
            Some(key) => {
                self.index_remove(slot, &p);
                self.tiers[slot as usize] = tier;
                self.index_insert(slot, key, &p);
            }
            None => self.tiers[slot as usize] = tier,
        }
    }

    /// Runs the bind pre-pass: visits every still-unkeyed entry in
    /// admission order; `f` returns the VFT to bind (the caller emits
    /// its event) or `None` to leave the entry unkeyed. Also compacts
    /// tombstones out of the unbound list.
    pub(crate) fn drain_unbound<F>(&mut self, mut f: F)
    where
        F: FnMut(&Pending) -> Option<f64>,
    {
        debug_assert!(self.vftf);
        let mut kept = 0;
        for i in 0..self.unbound.len() {
            let (slot, id) = self.unbound[i];
            let alive = matches!(
                &self.slots[slot as usize],
                Some(p) if p.req.id.as_u64() == id && p.vft.is_none()
            );
            if !alive {
                continue; // tombstone (removed, reused, or already bound)
            }
            let p = *self.slots[slot as usize].as_ref().expect("checked above");
            match f(&p) {
                Some(vft) => {
                    self.slots[slot as usize]
                        .as_mut()
                        .expect("checked above")
                        .vft = Some(vft);
                    self.index_insert(slot, vft, &p);
                }
                None => {
                    self.unbound[kept] = (slot, id);
                    kept += 1;
                }
            }
        }
        self.unbound.truncate(kept);
    }

    /// The live slot at admission-order cell `i`, or `None` for a
    /// tombstone.
    pub(crate) fn order_slot(&self, i: usize) -> Option<u32> {
        let (slot, id) = self.order[i];
        self.holds(slot, id).then_some(slot)
    }

    /// The oldest live entry's slot (the FCFS candidate).
    pub(crate) fn front_slot(&self) -> Option<u32> {
        (0..self.order.len()).find_map(|i| self.order_slot(i))
    }

    /// The `n`-th live entry's slot in admission order (fault-drop
    /// victim selection).
    pub(crate) fn nth_slot(&self, n: usize) -> Option<u32> {
        (0..self.order.len())
            .filter_map(|i| self.order_slot(i))
            .nth(n)
    }

    /// Iterates live entries in admission order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &Pending)> {
        (0..self.order.len())
            .filter_map(|i| self.order_slot(i))
            .map(|slot| (slot, self.get(slot)))
    }

    /// True when `tier` holds no keyed entry (so no candidate).
    pub(crate) fn tier_is_empty(&self, tier: u8) -> bool {
        self.trees[tier as usize].min().is_none()
    }

    /// The best keyed entry of any tier (the locked FQ scheduler's pick,
    /// which ranks by `(key, id)` alone).
    pub(crate) fn min_any_tier(&self) -> Option<TreeVal> {
        self.trees
            .iter()
            .fold(None, |acc, t| tree_min(acc, t.min()))
    }

    /// The best keyed entry of `tier` (the activate candidate on a
    /// closed bank).
    pub(crate) fn min_all(&self, tier: u8) -> Option<TreeVal> {
        self.trees[tier as usize].min()
    }

    /// The best keyed entry of `tier` whose row differs from `row` (the
    /// precharge candidate when `row` is open).
    pub(crate) fn min_excluding_row(&self, row: u32, tier: u8) -> Option<TreeVal> {
        let tree = &self.trees[tier as usize];
        match self.group_of_row.get(&row) {
            Some(&g) => tree.min_excluding(g),
            None => tree.min(),
        }
    }

    /// The best keyed open-row hit of `tier`, honouring per-kind
    /// readiness: reads compete only if `want_read`, writes only if
    /// `want_write`.
    pub(crate) fn min_cas(
        &self,
        row: u32,
        want_read: bool,
        want_write: bool,
        tier: u8,
    ) -> Option<TreeVal> {
        let &gid = self.group_of_row.get(&row)?;
        let g = &self.groups[gid as usize][tier as usize];
        let r = if want_read { g.read.peek() } else { None };
        let w = if want_write { g.write.peek() } else { None };
        tree_min(r, w)
    }

    /// Empties the queue, keeping configuration flags (snapshot restore
    /// re-pushes entries in admission order, rebuilding all derived
    /// index state).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.tiers.clear();
        self.free.clear();
        self.live = 0;
        self.order.clear();
        self.order_dead = 0;
        self.unbound.clear();
        self.group_of_row.clear();
        self.free_groups.clear();
        self.groups.clear();
        self.trees = Default::default();
        self.heap_pos.clear();
    }
}

/// Each thread's current priority tier plus the `(bank, slot, id)` of
/// its queued entries, so a tier flip costs O(that thread's entries ×
/// log n) instead of a sweep over every queue. Kept only while a tier
/// source (BLISS or regulation) is configured.
///
/// The per-thread lists carry lazy tombstones (an entry is live iff its
/// bank queue still [`holds`](BankQueue::holds) the slot with that id);
/// a list is compacted whenever it fills its capacity, and grows only
/// when compaction frees less than half of it, which keeps pushes
/// amortized O(1) and each list O(the thread's live entries).
#[derive(Debug, Clone)]
pub(crate) struct ThreadTiers {
    tier: Vec<u8>,
    entries: Vec<Vec<(u32, u32, u64)>>,
}

impl ThreadTiers {
    /// `tiers[t]` is thread `t`'s initial tier; no entries.
    pub(crate) fn new(tiers: Vec<u8>) -> Self {
        let entries = vec![Vec::new(); tiers.len()];
        ThreadTiers {
            tier: tiers,
            entries,
        }
    }

    /// Thread `thread`'s current tier (the tier its new entries join).
    pub(crate) fn tier(&self, thread: usize) -> u8 {
        self.tier[thread]
    }

    /// Records a newly queued entry of `thread`.
    pub(crate) fn note_push(
        &mut self,
        thread: usize,
        bank: usize,
        slot: u32,
        id: u64,
        queues: &[BankQueue],
    ) {
        let list = &mut self.entries[thread];
        if list.len() == list.capacity() {
            list.retain(|&(b, s, id)| queues[b as usize].holds(s, id));
            if list.len() * 2 > list.capacity() {
                list.reserve(list.len());
            }
        }
        list.push((bank as u32, slot, id));
    }

    /// Sets `thread`'s tier, moving its queued entries to `tier`; calls
    /// `touched` with the bank of every entry moved (whose memoized
    /// proposal the move invalidates).
    pub(crate) fn set(
        &mut self,
        thread: usize,
        tier: u8,
        queues: &mut [BankQueue],
        mut touched: impl FnMut(usize),
    ) {
        if self.tier[thread] == tier {
            return;
        }
        self.tier[thread] = tier;
        self.entries[thread].retain(|&(b, s, id)| {
            let q = &mut queues[b as usize];
            let live = q.holds(s, id);
            if live {
                q.set_tier(s, tier);
                touched(b as usize);
            }
            live
        });
    }

    /// Rebuilds from scratch after a snapshot restore: `tiers[t]` is each
    /// thread's restored tier; every queued entry is re-tiered.
    pub(crate) fn rebuild(&mut self, tiers: Vec<u8>, queues: &mut [BankQueue]) {
        self.tier = tiers;
        for list in &mut self.entries {
            list.clear();
        }
        for (b, q) in queues.iter_mut().enumerate() {
            let live: Vec<(u32, usize, u64)> = q
                .iter()
                .map(|(s, p)| (s, p.req.thread.as_usize(), p.req.id.as_u64()))
                .collect();
            for (s, t, id) in live {
                q.set_tier(s, self.tier[t]);
                self.entries[t].push((b as u32, s, id));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(key: f64, id: u64) -> SelKey {
        SelKey { key, id }
    }

    #[test]
    fn selkey_orders_by_key_then_id() {
        assert!(k(1.0, 9) < k(2.0, 1));
        assert!(k(1.0, 1) < k(1.0, 2));
        assert_eq!(k(3.0, 3).cmp(&k(3.0, 3)), Ordering::Equal);
    }

    #[test]
    fn heap_insert_peek_remove() {
        let mut h = IndexedHeap::new();
        let mut pos = Vec::new();
        h.insert(&mut pos, 0, k(5.0, 0));
        h.insert(&mut pos, 1, k(3.0, 1));
        h.insert(&mut pos, 2, k(4.0, 2));
        assert_eq!(h.peek(), Some((k(3.0, 1), 1)));
        assert!(h.remove(&mut pos, 1));
        assert_eq!(h.peek(), Some((k(4.0, 2), 2)));
        assert!(!h.remove(&mut pos, 1), "double remove must be a no-op");
        assert!(h.remove(&mut pos, 0));
        assert!(h.remove(&mut pos, 2));
        assert!(h.is_empty());
    }

    #[test]
    fn heap_update_rekeys_in_place() {
        let mut h = IndexedHeap::new();
        let mut pos = Vec::new();
        for (slot, key) in [(0, 10.0), (1, 20.0), (2, 30.0)] {
            h.insert(&mut pos, slot, k(key, u64::from(slot)));
        }
        h.update(&mut pos, 2, k(1.0, 2));
        assert_eq!(h.peek(), Some((k(1.0, 2), 2)));
        h.update(&mut pos, 2, k(99.0, 2));
        assert_eq!(h.peek(), Some((k(10.0, 0), 0)));
    }

    #[test]
    fn heap_duplicate_keys_break_ties_by_id() {
        let mut h = IndexedHeap::new();
        let mut pos = Vec::new();
        h.insert(&mut pos, 0, k(7.0, 4));
        h.insert(&mut pos, 1, k(7.0, 2));
        h.insert(&mut pos, 2, k(7.0, 3));
        assert_eq!(h.peek(), Some((k(7.0, 2), 1)));
    }

    #[test]
    fn tournament_min_and_exclusion() {
        let mut t = TournamentTree::new();
        let a = t.push_leaf();
        let b = t.push_leaf();
        let c = t.push_leaf();
        assert_eq!(t.min(), None);
        t.set(a, Some((k(5.0, 0), 10)));
        t.set(b, Some((k(2.0, 1), 11)));
        t.set(c, Some((k(9.0, 2), 12)));
        assert_eq!(t.min(), Some((k(2.0, 1), 11)));
        assert_eq!(t.min_excluding(b), Some((k(5.0, 0), 10)));
        assert_eq!(t.min_excluding(a), Some((k(2.0, 1), 11)));
        t.set(b, None);
        assert_eq!(t.min(), Some((k(5.0, 0), 10)));
        assert_eq!(t.min_excluding(a), Some((k(9.0, 2), 12)));
    }

    #[test]
    fn tournament_grows_past_initial_capacity() {
        let mut t = TournamentTree::new();
        for i in 0..37u64 {
            let leaf = t.push_leaf();
            t.set(leaf, Some((k(100.0 - i as f64, i), i as u32)));
        }
        // The last leaf has the smallest key.
        assert_eq!(t.min(), Some((k(100.0 - 36.0, 36), 36)));
        assert_eq!(t.min_excluding(36), Some((k(100.0 - 35.0, 35), 35)));
    }

    // ---- BankQueue vs a naive linear-scan oracle (CaseRunner) ----------

    use crate::request::{RequestId, RequestKind, ThreadId};
    use fqms_dram::command::{BankId, ColId, DramAddress, RankId, RowId};
    use fqms_sim::clock::DramCycle;
    use fqms_sim::rng::{CaseRunner, SimRng};

    /// Threads the randomized queue operations draw from.
    const THREADS: u32 = 3;

    /// One randomized queue operation.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Admit a request of `thread` to `row` (read/write), optionally
        /// pre-keyed (at-arrival binding); `key` carries the VFT when
        /// pre-keyed. The entry joins its thread's current tier.
        Push {
            thread: u32,
            row: u32,
            write: bool,
            arrival: u64,
            key: Option<f64>,
        },
        /// Remove the `n`-th live entry in admission order (mod live).
        Remove(usize),
        /// Bind the `n`-th unkeyed entry (mod unbound count) to `key`.
        Bind { nth: usize, key: f64 },
        /// Move `thread` (and every entry it has queued) to `tier`.
        Retier { thread: u32, tier: u8 },
    }

    /// Oracle entry: `(id, thread, row, write, key)` in admission order.
    type OracleEntry = (u64, u32, u32, bool, Option<f64>);

    fn request(id: u64, thread: u32, row: u32, write: bool, arrival: u64) -> MemoryRequest {
        MemoryRequest {
            id: RequestId::new(id),
            thread: ThreadId::new(thread),
            kind: if write {
                RequestKind::Write
            } else {
                RequestKind::Read
            },
            addr: DramAddress {
                rank: RankId::new(0),
                bank: BankId::new(0),
                row: RowId::new(row),
                col: ColId::new(0),
            },
            arrival: DramCycle::new(arrival),
        }
    }

    /// Key palette stressing the orderings the scheduler meets in the
    /// wild: heavy duplicates (id tiebreaks), u64-wraparound-adjacent
    /// clock values, and large magnitudes where f64 granularity exceeds 1.
    fn gen_key(rng: &mut SimRng) -> f64 {
        match rng.next_below(4) {
            0 => rng.next_below(8) as f64,
            1 => (u64::MAX - rng.next_below(4)) as f64,
            2 => rng.next_below(1 << 60) as f64,
            _ => 42.0,
        }
    }

    fn gen_ops(rng: &mut SimRng) -> Vec<Op> {
        let n = 4 + rng.next_below(60);
        (0..n)
            .map(|_| match rng.next_below(10) {
                0..=3 => Op::Push {
                    thread: rng.next_below(u64::from(THREADS)) as u32,
                    row: rng.next_below(5) as u32,
                    write: rng.chance(0.4),
                    arrival: rng.next_below(1 << 40),
                    key: rng.chance(0.3).then(|| gen_key(rng)),
                },
                4 | 5 => Op::Remove(rng.next_below(16) as usize),
                6 | 7 => Op::Bind {
                    nth: rng.next_below(16) as usize,
                    key: gen_key(rng),
                },
                _ => Op::Retier {
                    thread: rng.next_below(u64::from(THREADS)) as u32,
                    tier: rng.next_below(TIERS as u64) as u8,
                },
            })
            .collect()
    }

    fn oracle_min<'a, I>(live: I) -> Option<(f64, u64)>
    where
        I: Iterator<Item = &'a OracleEntry>,
    {
        live.filter_map(|&(id, _, _, _, key)| key.map(|v| (v, id)))
            .min_by(|a, b| SelKey { key: a.0, id: a.1 }.cmp(&SelKey { key: b.0, id: b.1 }))
    }

    fn as_pair(v: Option<TreeVal>, q: &BankQueue) -> Option<(f64, u64)> {
        v.map(|(sel, slot)| {
            assert_eq!(
                q.get(slot).req.id.as_u64(),
                sel.id,
                "index returned a stale slot"
            );
            (sel.key, sel.id)
        })
    }

    /// Replays `ops` against a vftf-indexed queue (tiers maintained
    /// through [`ThreadTiers`]) and a naive oracle, cross-checking every
    /// query surface of every tier after every operation.
    fn check_against_oracle(ops: &[Op]) -> Result<(), String> {
        let mut queues = vec![BankQueue::new(true)];
        let mut tiers = ThreadTiers::new(vec![0; THREADS as usize]);
        let mut oracle: Vec<OracleEntry> = Vec::new();
        let mut oracle_tier = [0u8; THREADS as usize];
        let mut next_id = 0u64;
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Push {
                    thread,
                    row,
                    write,
                    arrival,
                    key,
                } => {
                    let id = next_id;
                    next_id += 1;
                    let t = thread as usize;
                    let slot = queues[0].push(
                        Pending {
                            req: request(id, thread, row, write, arrival),
                            vft: key,
                            ras_issued: 0,
                        },
                        tiers.tier(t),
                    );
                    tiers.note_push(t, 0, slot, id, &queues);
                    oracle.push((id, thread, row, write, key));
                }
                Op::Remove(n) => {
                    if oracle.is_empty() {
                        continue;
                    }
                    let n = n % oracle.len();
                    let q = &mut queues[0];
                    let slot = q.nth_slot(n).ok_or_else(|| {
                        format!(
                            "step {step}: nth_slot({n}) missing with {} live",
                            oracle.len()
                        )
                    })?;
                    let removed = q.remove(slot);
                    let (id, ..) = oracle.remove(n);
                    if removed.req.id.as_u64() != id {
                        return Err(format!(
                            "step {step}: removed id {} oracle expected {id}",
                            removed.req.id.as_u64()
                        ));
                    }
                }
                Op::Bind { nth, key } => {
                    let unbound: Vec<u64> = oracle
                        .iter()
                        .filter(|e| e.4.is_none())
                        .map(|e| e.0)
                        .collect();
                    if unbound.is_empty() {
                        continue;
                    }
                    let target = unbound[nth % unbound.len()];
                    queues[0].drain_unbound(|p| (p.req.id.as_u64() == target).then_some(key));
                    oracle.iter_mut().find(|e| e.0 == target).expect("listed").4 = Some(key);
                }
                Op::Retier { thread, tier } => {
                    tiers.set(thread as usize, tier, &mut queues, |_| {});
                    oracle_tier[thread as usize] = tier;
                }
            }
            // --- cross-check every query surface ---
            let q = &queues[0];
            if q.len() != oracle.len() {
                return Err(format!(
                    "step {step}: len {} != oracle {}",
                    q.len(),
                    oracle.len()
                ));
            }
            let iter_ids: Vec<u64> = q.iter().map(|(_, p)| p.req.id.as_u64()).collect();
            let oracle_ids: Vec<u64> = oracle.iter().map(|e| e.0).collect();
            if iter_ids != oracle_ids {
                return Err(format!(
                    "step {step}: admission order {iter_ids:?} != {oracle_ids:?}"
                ));
            }
            for (slot, p) in q.iter() {
                let want = oracle_tier[p.req.thread.as_usize()];
                if q.tier(slot) != want {
                    return Err(format!(
                        "step {step}: id {} in tier {} != thread tier {want}",
                        p.req.id.as_u64(),
                        q.tier(slot)
                    ));
                }
            }
            let front = q.front_slot().map(|s| q.get(s).req.id.as_u64());
            if front != oracle.first().map(|e| e.0) {
                return Err(format!("step {step}: front {front:?}"));
            }
            if as_pair(q.min_any_tier(), q) != oracle_min(oracle.iter()) {
                return Err(format!(
                    "step {step}: min_any_tier {:?} != {:?}",
                    as_pair(q.min_any_tier(), q),
                    oracle_min(oracle.iter())
                ));
            }
            for tier in 0..TIERS as u8 {
                let in_tier = |e: &&OracleEntry| oracle_tier[e.1 as usize] == tier;
                let want = oracle_min(oracle.iter().filter(in_tier));
                if as_pair(q.min_all(tier), q) != want {
                    return Err(format!(
                        "step {step}: min_all({tier}) {:?} != {want:?}",
                        as_pair(q.min_all(tier), q)
                    ));
                }
                if q.tier_is_empty(tier) != want.is_none() {
                    return Err(format!("step {step}: tier_is_empty({tier}) wrong"));
                }
                for row in 0..5u32 {
                    let got = as_pair(q.min_excluding_row(row, tier), q);
                    let want = oracle_min(oracle.iter().filter(in_tier).filter(|e| e.2 != row));
                    if got != want {
                        return Err(format!(
                            "step {step}: min_excluding_row({row}, {tier}) {got:?} != {want:?}"
                        ));
                    }
                    for (want_read, want_write) in [(true, true), (true, false), (false, true)] {
                        let got = as_pair(q.min_cas(row, want_read, want_write, tier), q);
                        let want =
                            oracle_min(oracle.iter().filter(in_tier).filter(|e| {
                                e.2 == row && if e.3 { want_write } else { want_read }
                            }));
                        if got != want {
                            return Err(format!(
                                "step {step}: min_cas({row}, {want_read}, {want_write}, \
                                 {tier}) {got:?} != {want:?}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn bank_queue_matches_linear_oracle() {
        CaseRunner::new("bank-queue-vs-oracle").run(
            gen_ops,
            |ops| {
                // Shrink: drop halves, then drop single ops back to front.
                let mut c = Vec::new();
                if ops.len() > 1 {
                    c.push(ops[..ops.len() / 2].to_vec());
                    c.push(ops[ops.len() / 2..].to_vec());
                }
                for i in (0..ops.len()).rev().take(8) {
                    let mut shorter = ops.clone();
                    shorter.remove(i);
                    c.push(shorter);
                }
                c
            },
            |ops| check_against_oracle(ops),
        );
    }

    #[test]
    fn arrival_keyed_queue_keys_at_push() {
        // Non-VFTF mode: every entry is keyed by arrival at push; the
        // tournament tracks pushes and removes with no bind step.
        let mut q = BankQueue::new(false);
        for (i, arrival) in [50u64, 10, 30].into_iter().enumerate() {
            q.push(
                Pending {
                    req: request(i as u64, 0, 1, false, arrival),
                    vft: None,
                    ras_issued: 0,
                },
                0,
            );
        }
        let (sel, slot) = q.min_all(0).expect("keyed");
        assert_eq!(sel.key, 10.0);
        assert_eq!(q.get(slot).req.id.as_u64(), 1);
        q.remove(slot);
        assert_eq!(q.min_all(0).map(|(s, _)| s.key), Some(30.0));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn thread_tiers_compact_dead_entries() {
        // A thread that never flips still keeps its entry list bounded by
        // its live entries: compaction on a full list drops the dead.
        let mut queues = vec![BankQueue::new(false)];
        let mut tiers = ThreadTiers::new(vec![0]);
        for id in 0..1_000u64 {
            let slot = queues[0].push(
                Pending {
                    req: request(id, 0, 2, false, id),
                    vft: None,
                    ras_issued: 0,
                },
                0,
            );
            tiers.note_push(0, 0, slot, id, &queues);
            queues[0].remove(slot);
        }
        assert!(tiers.entries[0].capacity() <= 8, "dead entries accumulated");
    }
}
