//! Approximate minimum degree (AMD) column ordering.
//!
//! Every sparse factor, refactor and moment resubstitution costs
//! `O(nnz(L+U))` (paper §3.2), and the column order sets that fill. A
//! bandwidth order confines fill to a band, which on a k×k power grid
//! grows like n^1.5; minimum degree instead eliminates, at each step, the
//! node whose elimination couples the fewest others, which keeps grid
//! fill near `n log n` and tree or chain fill at zero.
//!
//! This is the quotient-graph algorithm of Amestoy, Davis & Duff (SIAM J.
//! Matrix Anal. Appl. 17(4), 1996) on the pattern of `A + Aᵀ`:
//!
//! * an eliminated node becomes an *element*: the clique its elimination
//!   creates is stored as a member list, never as edges, so the graph
//!   never outgrows the input;
//! * an element whose members all belong to a newer element is absorbed
//!   into it, both when the newer element forms and, aggressively, during
//!   the degree update;
//! * nodes with identical adjacency are merged into one supervariable
//!   (found by hashing) and eliminated together, as is any node left
//!   adjacent to nothing outside the new element (mass elimination);
//! * each node's external degree is an upper bound, not an exact count —
//!   the approximation that keeps the ordering near-linear;
//! * rows denser than `max(16, 10·√n)` are deferred to the end.
//!
//! Ties on the approximate degree go to the lowest node index. The order
//! is therefore a pure function of the sparsity pattern: it repeats
//! across runs, thread counts and the order in which entries were
//! assembled.

use crate::sparse::SparseMatrix;

const NONE: usize = usize::MAX;

/// What a node index currently stands for in the quotient graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A principal (super)variable, not yet eliminated.
    Var,
    /// An eliminated node standing for its clique.
    Elem,
    /// Absorbed, merged, mass-eliminated or deferred: never read again.
    Dead,
}

/// The adjacency of `A + Aᵀ` without the diagonal, packed into one array
/// with elbow room for new elements: node `j`'s neighbours are
/// `iw[pe[j]..pe[j] + len[j]]`, each listed once.
fn symmetric_pattern(a: &SparseMatrix) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let n = a.rows();
    let mut count = vec![0usize; n];
    for j in 0..n {
        for &i in a.col(j).0 {
            if i != j {
                count[i] += 1;
                count[j] += 1;
            }
        }
    }
    let mut pe = vec![0usize; n];
    let mut total = 0;
    for j in 0..n {
        pe[j] = total;
        total += count[j];
    }
    let mut iw = vec![0usize; total];
    let mut len = vec![0usize; n];
    for j in 0..n {
        for &i in a.col(j).0 {
            if i != j {
                iw[pe[i] + len[i]] = j;
                len[i] += 1;
                iw[pe[j] + len[j]] = i;
                len[j] += 1;
            }
        }
    }
    // An entry present as both (i, j) and (j, i) was listed twice:
    // compact each list in place, keeping first occurrences.
    let mut seen = vec![NONE; n];
    let mut q = 0;
    for j in 0..n {
        let start = pe[j];
        pe[j] = q;
        for p in start..start + len[j] {
            let i = iw[p];
            if seen[i] != j {
                seen[i] = j;
                iw[q] = i;
                q += 1;
            }
        }
        len[j] = q - pe[j];
    }
    iw.truncate(q);
    iw.resize(q + q / 5 + 2 * n, 0);
    (pe, len, iw)
}

/// The AMD elimination order of `a`'s symmetrized pattern: `order[k]` is
/// the node eliminated `k`-th. `a` must be square.
pub(crate) fn amd_order(a: &SparseMatrix) -> Vec<usize> {
    let n = a.rows();
    let (mut pe, mut len, mut iw) = symmetric_pattern(a);
    let mut pfree = pe.last().map_or(0, |&p| p + len[n - 1]);
    // A variable's list is `elen` elements followed by its variable
    // neighbours; an element's list is its member variables.
    let mut elen = vec![0usize; n];
    let mut kind = vec![Kind::Var; n];
    let mut nv = vec![1usize; n];
    let mut degree = len.clone();
    // Nodes eliminated with a principal variable, as a linked chain.
    let mut chain_next = vec![NONE; n];
    let mut chain_tail: Vec<usize> = (0..n).collect();
    // Per-step marks: membership in the new element, and |Le \ Lk|.
    let mut in_lk = vec![0usize; n];
    let mut w_step = vec![0usize; n];
    let mut w_ext = vec![0usize; n];
    let mut cmp_mark = vec![0usize; n];
    let mut cmp_stamp = 0usize;

    let dense = ((10.0 * (n as f64).sqrt()) as usize)
        .max(16)
        .min(n.saturating_sub(2));
    let mut deferred = Vec::new();
    let mut queue = DegreeQueue::new(n);
    for i in 0..n {
        if degree[i] > dense {
            kind[i] = Kind::Dead;
            nv[i] = 0;
            deferred.push(i);
        } else {
            queue.set(i, degree[i]);
        }
    }
    let mut nel = deferred.len();
    let mut order = Vec::with_capacity(n);
    let mut lk: Vec<usize> = Vec::new();
    let mut cands: Vec<(u64, usize)> = Vec::new();
    let mut step = 0usize;

    while nel < n {
        // --- Pivot: minimum approximate degree, lowest index on ties.
        let k = queue.pop().expect("a live variable remains");
        step += 1;
        let mut nvk = nv[k];
        nel += nvk;
        kind[k] = Kind::Elem;

        // --- New element Lk: k's variable neighbours plus the members of
        // every element adjacent to k, each of which k absorbs.
        lk.clear();
        let (pk, elenk) = (pe[k], elen[k]);
        for p in pk..pk + len[k] {
            let x = iw[p];
            let members = if p < pk + elenk {
                if kind[x] != Kind::Elem {
                    continue;
                }
                kind[x] = Kind::Dead;
                pe[x]..pe[x] + len[x]
            } else {
                p..p + 1
            };
            for q in members {
                let i = iw[q];
                if kind[i] == Kind::Var && in_lk[i] != step {
                    in_lk[i] = step;
                    lk.push(i);
                }
            }
        }
        let mut dk: usize = lk.iter().map(|&i| nv[i]).sum();
        if elenk == 0 {
            // Lk ⊆ k's own neighbour list: it fits in place.
            iw[pk..pk + lk.len()].copy_from_slice(&lk);
        } else {
            len[k] = 0;
            if pfree + lk.len() > iw.len() {
                pfree = compact(&mut iw, &mut pe, &len, &kind);
                if pfree + lk.len() > iw.len() {
                    iw.resize(pfree + lk.len() + n, 0);
                }
            }
            pe[k] = pfree;
            iw[pfree..pfree + lk.len()].copy_from_slice(&lk);
            pfree += lk.len();
        }
        len[k] = lk.len();
        elen[k] = 0;

        // --- |Le \ Lk| for every element adjacent to Lk.
        for &i in &lk {
            for p in pe[i]..pe[i] + elen[i] {
                let e = iw[p];
                if kind[e] != Kind::Elem {
                    continue;
                }
                if w_step[e] != step {
                    w_step[e] = step;
                    w_ext[e] = degree[e];
                }
                w_ext[e] = w_ext[e].saturating_sub(nv[i]);
            }
        }

        // --- Degree update: prune each member's list, bound its external
        // degree, and hash it for supervariable detection.
        cands.clear();
        for &i in &lk {
            let p1 = pe[i];
            let p2 = p1 + elen[i];
            let pend = p1 + len[i];
            let mut pn = p1;
            let mut d = 0usize;
            let mut h = 0u64;
            for p in p1..p2 {
                let e = iw[p];
                if kind[e] != Kind::Elem {
                    continue;
                }
                if w_ext[e] > 0 {
                    d += w_ext[e];
                    iw[pn] = e;
                    pn += 1;
                    h = h.wrapping_add(e as u64);
                } else {
                    // Le ⊆ Lk: aggressive absorption into k.
                    kind[e] = Kind::Dead;
                }
            }
            let p3 = pn;
            for p in p2..pend {
                let j = iw[p];
                if kind[j] != Kind::Var || in_lk[j] == step {
                    continue;
                }
                d += nv[j];
                iw[pn] = j;
                pn += 1;
                h = h.wrapping_add(j as u64);
            }
            if d == 0 {
                // Adjacent to nothing outside Lk: eliminated with k.
                kind[i] = Kind::Dead;
                queue.remove(i);
                nvk += nv[i];
                dk -= nv[i];
                nel += nv[i];
                nv[i] = 0;
                append_chain(&mut chain_next, &mut chain_tail, k, i);
                continue;
            }
            // The list lost k (now an element) or an absorbed element, so
            // there is room to put k first: the old first element moves
            // to the end of the element run, the first variable to the
            // end of the list.
            assert!(pn < pend, "quotient-graph list overflow");
            iw[pn] = iw[p3];
            iw[p3] = iw[p1];
            iw[p1] = k;
            elen[i] = p3 - p1 + 1;
            len[i] = pn - p1 + 1;
            degree[i] = degree[i].min(d);
            cands.push((h, i));
        }

        // --- Supervariables: members with identical lists merge. Every
        // list starts with k, so comparisons skip the first entry.
        cands.sort_unstable();
        let mut run = 0;
        while run < cands.len() {
            let end = run + cands[run..].partition_point(|c| c.0 == cands[run].0);
            for x in run..end {
                let i = cands[x].1;
                if kind[i] != Kind::Var {
                    continue;
                }
                cmp_stamp += 1;
                for p in pe[i] + 1..pe[i] + len[i] {
                    cmp_mark[iw[p]] = cmp_stamp;
                }
                for &(_, j) in &cands[x + 1..end] {
                    if kind[j] == Kind::Var
                        && len[j] == len[i]
                        && elen[j] == elen[i]
                        && iw[pe[j] + 1..pe[j] + len[j]]
                            .iter()
                            .all(|&y| cmp_mark[y] == cmp_stamp)
                    {
                        nv[i] += nv[j];
                        nv[j] = 0;
                        kind[j] = Kind::Dead;
                        queue.remove(j);
                        append_chain(&mut chain_next, &mut chain_tail, i, j);
                    }
                }
            }
            run = end;
        }

        // --- Finalize Lk: keep principal members and requeue them at
        // their new external degree.
        let mut p = pe[k];
        for &i in &lk {
            if kind[i] != Kind::Var {
                continue;
            }
            let d = (degree[i] + dk - nv[i]).min(n - nel - nv[i]);
            degree[i] = d;
            queue.set(i, d);
            iw[p] = i;
            p += 1;
        }
        if elenk != 0 {
            pfree = p;
        }
        len[k] = p - pe[k];
        degree[k] = dk;
        nv[k] = nvk;
        if len[k] == 0 {
            kind[k] = Kind::Dead;
        }
        let mut x = k;
        while x != NONE {
            order.push(x);
            x = chain_next[x];
        }
    }
    order.extend(deferred);
    debug_assert_eq!(order.len(), n);
    order
}

/// Live variables keyed by `(approximate degree, index)` in a binary
/// heap that tracks each entry's position, so a changed degree moves its
/// entry in place: the minimum is the lowest-index variable of least
/// degree, and no stale entry is ever popped.
struct DegreeQueue {
    heap: Vec<(usize, usize)>,
    pos: Vec<usize>,
}

impl DegreeQueue {
    fn new(n: usize) -> Self {
        DegreeQueue {
            heap: Vec::with_capacity(n),
            pos: vec![NONE; n],
        }
    }

    /// Inserts variable `i` at degree `d`, or moves it there.
    fn set(&mut self, i: usize, d: usize) {
        let p = self.pos[i];
        if p == NONE {
            self.heap.push((d, i));
            self.sift_up(self.heap.len() - 1);
        } else if d < self.heap[p].0 {
            self.heap[p].0 = d;
            self.sift_up(p);
        } else {
            self.heap[p].0 = d;
            self.sift_down(p);
        }
    }

    /// Removes variable `i` if present.
    fn remove(&mut self, i: usize) {
        let p = std::mem::replace(&mut self.pos[i], NONE);
        if p == NONE {
            return;
        }
        let last = self.heap.pop().expect("a queued entry");
        if p < self.heap.len() {
            self.heap[p] = last;
            self.sift_down(p);
            self.sift_up(self.pos[last.1]);
        }
    }

    /// Removes and returns the lowest-index variable of least degree.
    fn pop(&mut self) -> Option<usize> {
        let i = self.heap.first()?.1;
        self.remove(i);
        Some(i)
    }

    fn sift_up(&mut self, mut p: usize) {
        let x = self.heap[p];
        while p > 0 {
            let parent = (p - 1) / 2;
            if self.heap[parent] <= x {
                break;
            }
            self.heap[p] = self.heap[parent];
            self.pos[self.heap[p].1] = p;
            p = parent;
        }
        self.heap[p] = x;
        self.pos[x.1] = p;
    }

    fn sift_down(&mut self, mut p: usize) {
        let x = self.heap[p];
        let len = self.heap.len();
        loop {
            let mut c = 2 * p + 1;
            if c >= len {
                break;
            }
            if c + 1 < len && self.heap[c + 1] < self.heap[c] {
                c += 1;
            }
            if x <= self.heap[c] {
                break;
            }
            self.heap[p] = self.heap[c];
            self.pos[self.heap[p].1] = p;
            p = c;
        }
        self.heap[p] = x;
        self.pos[x.1] = p;
    }
}

/// Links `j`'s chain of co-eliminated nodes behind `i`'s.
fn append_chain(next: &mut [usize], tail: &mut [usize], i: usize, j: usize) {
    next[tail[i]] = j;
    tail[i] = tail[j];
}

/// Garbage collection: slides every live list to the front of `iw`, in
/// storage order, and returns the first free position.
fn compact(iw: &mut [usize], pe: &mut [usize], len: &[usize], kind: &[Kind]) -> usize {
    let mut live: Vec<usize> = (0..pe.len())
        .filter(|&j| kind[j] == Kind::Var || (kind[j] == Kind::Elem && len[j] > 0))
        .collect();
    live.sort_unstable_by_key(|&j| pe[j]);
    let mut q = 0;
    for j in live {
        iw.copy_within(pe[j]..pe[j] + len[j], q);
        pe[j] = q;
        q += len[j];
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Symmetric pattern with a unit diagonal from undirected edges.
    fn graph(n: usize, edges: &[(usize, usize)]) -> SparseMatrix {
        let mut t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1.0)).collect();
        for &(a, b) in edges {
            t.extend([(a, b, 1.0), (b, a, 1.0)]);
        }
        SparseMatrix::from_triplets(n, n, &t)
    }

    fn assert_permutation(order: &[usize], n: usize) {
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn dense_rows_are_deferred_to_the_end() {
        // A 30×30 grid plus one hub wired to every grid node: the hub's
        // degree (900) is past the 10·√n threshold, so it goes last.
        let (k, hub) = (30usize, 900usize);
        let mut edges = Vec::new();
        for r in 0..k {
            for c in 0..k {
                let u = r * k + c;
                if c + 1 < k {
                    edges.push((u, u + 1));
                }
                if r + 1 < k {
                    edges.push((u, u + k));
                }
                edges.push((u, hub));
            }
        }
        let order = amd_order(&graph(hub + 1, &edges));
        assert_permutation(&order, hub + 1);
        assert_eq!(order.last(), Some(&hub));
    }

    #[test]
    fn random_graphs_order_every_node_once() {
        // Sparse to moderately dense random patterns, some with hubs: the
        // quotient graph outgrows its elbow room and is compacted on the
        // larger ones, and the result must still be a permutation.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        for (n, per_node) in [(1, 0), (2, 1), (3, 2), (17, 3), (60, 2), (250, 4), (400, 9)] {
            let mut edges = Vec::new();
            for i in 0..n {
                for _ in 0..per_node {
                    let j = next(n);
                    if j != i {
                        edges.push((i, j));
                    }
                }
            }
            if n > 100 {
                for j in 0..n / 2 {
                    edges.push((7, j));
                }
            }
            assert_permutation(&amd_order(&graph(n, &edges)), n);
        }
    }

    #[test]
    fn chains_and_stars_order_leaves_first() {
        // Path 0-1-…-9: both ends have degree 1, lowest index first, and
        // elimination then walks inward without fill.
        let path: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let order = amd_order(&graph(10, &path));
        assert_eq!(order[0], 0);
        assert_permutation(&order, 10);
        // Star centred on 0: every leaf precedes the centre.
        let star: Vec<(usize, usize)> = (1..6).map(|i| (0, i)).collect();
        assert_eq!(amd_order(&graph(6, &star)).last(), Some(&0));
    }
}
