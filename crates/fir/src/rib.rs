//! The RFC 4271 RIBs and the native decision process.
//!
//! Since the incremental-RIB rework, Adj-RIB-In and Loc-RIB live in one
//! prefix-trie-keyed store ([`RibStore`]): each net holds its candidate
//! list (one slot per source: slot 0 = locally originated, slot `i+1` =
//! peer `i`) plus the *committed* best route — a clone taken when the
//! decision process last ran, exactly like the separate `LocRib` used to
//! hold clones. Keeping candidates and best under one node gives the
//! daemon O(1) best-route access while deciding and lets dump paths walk
//! the trie in prefix order without sorting.

use crate::attrs::FirAttrs;
use rpki::RovState;
use std::collections::HashMap;
use std::rc::Rc;
use xbgp_core::api::PeerType;
use xbgp_rib::PrefixMap;
use xbgp_wire::Ipv4Prefix;

/// Where a route was learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteSource {
    /// Neighbor address / BGP identifier, or the router's own id for
    /// locally originated routes.
    pub peer_addr: u32,
    pub peer_asn: u32,
    pub peer_type: PeerType,
    /// The source peer is a route-reflection client.
    pub rr_client: bool,
    /// True for locally originated routes.
    pub local: bool,
}

impl RouteSource {
    pub fn local(router_id: u32, asn: u32) -> RouteSource {
        RouteSource {
            peer_addr: router_id,
            peer_asn: asn,
            peer_type: PeerType::Ibgp,
            rr_client: false,
            local: true,
        }
    }
}

/// One route in a RIB: shared attribute set plus provenance.
#[derive(Debug, Clone)]
pub struct RibEntry {
    pub attrs: Rc<FirAttrs>,
    pub source: RouteSource,
    /// Origin-validation verdict, when validation is active (§3.4 —
    /// recorded, never used to discard).
    pub rov: Option<RovState>,
}

/// Slot index of locally originated routes in a [`RibStore`].
pub const LOCAL_SLOT: usize = 0;

/// Slot index of peer `idx`'s routes in a [`RibStore`].
pub fn peer_slot(idx: usize) -> usize {
    idx + 1
}

/// All state for one net: the candidate routes (ascending slot order,
/// which reproduces the old decision scan order — local route first,
/// then peers) and the committed best, cloned at decision time so it
/// survives the winning candidate's later removal.
#[derive(Debug, Default)]
pub struct NetEntry {
    cands: Vec<(usize, RibEntry)>,
    best: Option<(usize, RibEntry)>,
}

impl NetEntry {
    pub fn candidates(&self) -> &[(usize, RibEntry)] {
        &self.cands
    }

    pub fn best(&self) -> Option<&(usize, RibEntry)> {
        self.best.as_ref()
    }
}

/// The merged Adj-RIB-In + Loc-RIB store, keyed by a prefix trie.
///
/// `slot_counts` and `loc_len` are maintained incrementally so the
/// occupancy gauges are O(1) reads.
#[derive(Debug)]
pub struct RibStore {
    nets: PrefixMap<NetEntry>,
    slot_counts: Vec<usize>,
    loc_len: usize,
}

impl RibStore {
    /// `slots` = number of candidate sources (peers + 1 for local).
    pub fn new(slots: usize) -> RibStore {
        RibStore {
            nets: PrefixMap::new(),
            slot_counts: vec![0; slots],
            loc_len: 0,
        }
    }

    /// Insert/replace the candidate at `slot`; returns the previous
    /// entry if any.
    pub fn insert(&mut self, prefix: Ipv4Prefix, slot: usize, entry: RibEntry) -> Option<RibEntry> {
        let net = self.nets.get_or_insert_with(prefix, NetEntry::default);
        match net.cands.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, old)) => Some(std::mem::replace(old, entry)),
            None => {
                let pos = net.cands.partition_point(|(s, _)| *s < slot);
                net.cands.insert(pos, (slot, entry));
                self.slot_counts[slot] += 1;
                None
            }
        }
    }

    /// Remove the candidate at `slot`; drops the net when nothing —
    /// neither candidates nor a committed best — remains.
    pub fn remove(&mut self, prefix: &Ipv4Prefix, slot: usize) -> Option<RibEntry> {
        let net = self.nets.get_mut(prefix)?;
        let pos = net.cands.iter().position(|(s, _)| *s == slot)?;
        let (_, entry) = net.cands.remove(pos);
        self.slot_counts[slot] -= 1;
        if net.cands.is_empty() && net.best.is_none() {
            self.nets.remove(prefix);
        }
        Some(entry)
    }

    pub fn candidate(&self, prefix: &Ipv4Prefix, slot: usize) -> Option<&RibEntry> {
        self.nets.get(prefix)?.cands.iter().find(|(s, _)| *s == slot).map(|(_, e)| e)
    }

    /// Clone the candidate list (slot order) for a decision pass.
    pub fn candidates_cloned(&self, prefix: &Ipv4Prefix) -> Vec<(usize, RibEntry)> {
        self.nets.get(prefix).map(|n| n.cands.clone()).unwrap_or_default()
    }

    /// The committed best route, if any (O(1)).
    pub fn best(&self, prefix: &Ipv4Prefix) -> Option<&RibEntry> {
        self.nets.get(prefix)?.best.as_ref().map(|(_, e)| e)
    }

    /// Which slot the committed best came from.
    pub fn best_slot(&self, prefix: &Ipv4Prefix) -> Option<usize> {
        self.nets.get(prefix)?.best.as_ref().map(|(s, _)| *s)
    }

    pub fn best_pair_cloned(&self, prefix: &Ipv4Prefix) -> Option<(usize, RibEntry)> {
        self.nets.get(prefix)?.best.clone()
    }

    /// Commit a decision outcome; drops the net once it is fully empty.
    pub fn commit_best(&mut self, prefix: Ipv4Prefix, winner: Option<(usize, RibEntry)>) {
        let Some(net) = self.nets.get_mut(&prefix) else {
            // Nothing stored and nothing to store: a None commit on a
            // missing net is a no-op; a Some commit creates the node.
            if let Some(w) = winner {
                let entry = self.nets.get_or_insert_with(prefix, NetEntry::default);
                entry.best = Some(w);
                self.loc_len += 1;
            }
            return;
        };
        let had = net.best.is_some();
        net.best = winner;
        let has = net.best.is_some();
        match (had, has) {
            (false, true) => self.loc_len += 1,
            (true, false) => self.loc_len -= 1,
            _ => {}
        }
        if net.cands.is_empty() && net.best.is_none() {
            self.nets.remove(&prefix);
        }
    }

    /// Number of nets with a committed best (Loc-RIB size).
    pub fn loc_len(&self) -> usize {
        self.loc_len
    }

    /// Total candidates learned from peers (Adj-RIB-In size).
    pub fn adj_in_len(&self) -> usize {
        self.slot_counts.iter().skip(1).sum()
    }

    /// Candidates held for one slot.
    pub fn slot_len(&self, slot: usize) -> usize {
        self.slot_counts[slot]
    }

    /// Committed best routes in `(addr, len)` prefix order — trie
    /// pre-order, no sort.
    pub fn iter_best(&self) -> impl Iterator<Item = (Ipv4Prefix, &RibEntry)> {
        self.nets.iter().filter_map(|(p, n)| n.best.as_ref().map(|(_, e)| (p, e)))
    }

    /// Every net with any state at all, in prefix order (oracle and
    /// full-recompute sweeps).
    pub fn net_prefixes(&self) -> Vec<Ipv4Prefix> {
        self.nets.keys().collect()
    }

    /// Drop every candidate held at `slot` (session teardown).
    ///
    /// Returns the prefixes needing re-decision, in prefix order: only
    /// those whose committed best came from this slot — or, when
    /// `all` is set (a `BgpDecision` extension is loaded, so any
    /// candidate-list change can alter the order-dependent outcome),
    /// every prefix that held a candidate.
    pub fn flush_slot(&mut self, slot: usize, all: bool) -> Vec<Ipv4Prefix> {
        let mut affected = Vec::new();
        let mut emptied = Vec::new();
        self.nets.for_each_mut(|prefix, net| {
            let Some(pos) = net.cands.iter().position(|(s, _)| *s == slot) else {
                return;
            };
            net.cands.remove(pos);
            if all || net.best.as_ref().is_some_and(|(s, _)| *s == slot) {
                affected.push(prefix);
            }
            if net.cands.is_empty() && net.best.is_none() {
                emptied.push(prefix);
            }
        });
        self.slot_counts[slot] = 0;
        for p in emptied {
            self.nets.remove(&p);
        }
        affected
    }
}

/// Adj-RIB-Out: what has been advertised to one peer (prefix → attribute
/// set actually sent). Used to emit withdraws and suppress duplicates.
#[derive(Debug, Default)]
pub struct AdjRibOut {
    sent: HashMap<Ipv4Prefix, Rc<FirAttrs>>,
}

impl AdjRibOut {
    /// Record an advertisement. Returns true if it differs from what was
    /// previously sent (i.e. must actually go on the wire).
    pub fn advertise(&mut self, prefix: Ipv4Prefix, attrs: Rc<FirAttrs>) -> bool {
        match self.sent.get(&prefix) {
            Some(prev) if Rc::ptr_eq(prev, &attrs) || **prev == *attrs => false,
            _ => {
                self.sent.insert(prefix, attrs);
                true
            }
        }
    }

    /// Record a withdraw. Returns true if the prefix had been advertised.
    pub fn withdraw(&mut self, prefix: &Ipv4Prefix) -> bool {
        self.sent.remove(prefix).is_some()
    }

    pub fn len(&self) -> usize {
        self.sent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sent.is_empty()
    }
}

/// Context the native decision process needs beyond the two candidates.
pub struct DecisionCtx<'a> {
    /// IGP metric to a nexthop (`u32::MAX` = unreachable/unknown).
    pub igp_metric: &'a dyn Fn(u32) -> u32,
    pub default_local_pref: u32,
}

/// RFC 4271 §9.1 route preference: returns true when `candidate` is
/// preferred over `best`.
///
/// Order: LOCAL_PREF, AS-path length, origin code, MED (compared across
/// neighbors, "always-compare-med" style, documented deviation), eBGP over
/// iBGP, IGP metric to nexthop, lowest originator router id, lowest peer
/// address.
///
/// On distinct sources this is a *strict total order*: every tier
/// compares a per-entry scalar, and the final peer-address tiebreak is
/// strict because a store never holds two candidates from the same
/// source. That totality is what makes the incremental fast path (one
/// pairwise comparison against the committed best) equivalent to a full
/// scan over the candidate list.
pub fn native_better(candidate: &RibEntry, best: &RibEntry, ctx: &DecisionCtx<'_>) -> bool {
    let lp = |e: &RibEntry| e.attrs.local_pref.unwrap_or(ctx.default_local_pref);
    if lp(candidate) != lp(best) {
        return lp(candidate) > lp(best);
    }
    let hops = |e: &RibEntry| e.attrs.as_path.hop_count();
    if hops(candidate) != hops(best) {
        return hops(candidate) < hops(best);
    }
    if candidate.attrs.origin != best.attrs.origin {
        return candidate.attrs.origin < best.attrs.origin;
    }
    let med = |e: &RibEntry| e.attrs.med.unwrap_or(0);
    if med(candidate) != med(best) {
        return med(candidate) < med(best);
    }
    let ebgp = |e: &RibEntry| e.source.peer_type == PeerType::Ebgp && !e.source.local;
    if ebgp(candidate) != ebgp(best) {
        return ebgp(candidate);
    }
    let metric = |e: &RibEntry| (ctx.igp_metric)(e.attrs.next_hop);
    if metric(candidate) != metric(best) {
        return metric(candidate) < metric(best);
    }
    let originator = |e: &RibEntry| e.attrs.originator_id.unwrap_or(e.source.peer_addr);
    if originator(candidate) != originator(best) {
        return originator(candidate) < originator(best);
    }
    candidate.source.peer_addr < best.source.peer_addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbgp_wire::attr::Origin;
    use xbgp_wire::AsPath;

    fn entry(f: impl FnOnce(&mut FirAttrs), src: RouteSource) -> RibEntry {
        let mut a = FirAttrs {
            as_path: AsPath::sequence(vec![1, 2]),
            next_hop: 1,
            ..FirAttrs::default()
        };
        f(&mut a);
        RibEntry { attrs: Rc::new(a), source: src, rov: None }
    }

    fn ebgp_src(addr: u32) -> RouteSource {
        RouteSource {
            peer_addr: addr,
            peer_asn: 65002,
            peer_type: PeerType::Ebgp,
            rr_client: false,
            local: false,
        }
    }

    fn ibgp_src(addr: u32) -> RouteSource {
        RouteSource {
            peer_addr: addr,
            peer_asn: 65001,
            peer_type: PeerType::Ibgp,
            rr_client: false,
            local: false,
        }
    }

    fn ctx() -> DecisionCtx<'static> {
        DecisionCtx { igp_metric: &|_| 10, default_local_pref: 100 }
    }

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn local_pref_dominates() {
        let hi = entry(|a| a.local_pref = Some(200), ibgp_src(5));
        let lo = entry(
            |a| {
                a.local_pref = Some(100);
                a.as_path = AsPath::sequence(vec![1]);
            },
            ibgp_src(6),
        );
        assert!(native_better(&hi, &lo, &ctx()));
        assert!(!native_better(&lo, &hi, &ctx()));
    }

    #[test]
    fn shorter_path_wins_then_origin_then_med() {
        let short = entry(|a| a.as_path = AsPath::sequence(vec![1]), ebgp_src(5));
        let long = entry(|a| a.as_path = AsPath::sequence(vec![1, 2, 3]), ebgp_src(6));
        assert!(native_better(&short, &long, &ctx()));

        let igp = entry(|a| a.origin = Origin::Igp, ebgp_src(5));
        let inc = entry(|a| a.origin = Origin::Incomplete, ebgp_src(6));
        assert!(native_better(&igp, &inc, &ctx()));

        let lomed = entry(|a| a.med = Some(5), ebgp_src(5));
        let himed = entry(|a| a.med = Some(50), ebgp_src(6));
        assert!(native_better(&lomed, &himed, &ctx()));
    }

    #[test]
    fn ebgp_beats_ibgp_then_igp_metric_then_tiebreaks() {
        let e = entry(|_| {}, ebgp_src(5));
        let i = entry(|_| {}, ibgp_src(4));
        assert!(native_better(&e, &i, &ctx()));

        let near = entry(|a| a.next_hop = 1, ibgp_src(5));
        let far = entry(|a| a.next_hop = 2, ibgp_src(6));
        let dctx = DecisionCtx {
            igp_metric: &|nh| if nh == 1 { 5 } else { 500 },
            default_local_pref: 100,
        };
        assert!(native_better(&near, &far, &dctx));

        let a = entry(|_| {}, ebgp_src(5));
        let b = entry(|_| {}, ebgp_src(6));
        assert!(native_better(&a, &b, &ctx()), "lower peer address wins the final tiebreak");
    }

    #[test]
    fn preference_is_asymmetric() {
        // For any distinct pair, exactly one direction is "better".
        let a = entry(|a| a.med = Some(1), ebgp_src(5));
        let b = entry(|a| a.med = Some(2), ebgp_src(6));
        assert!(native_better(&a, &b, &ctx()) != native_better(&b, &a, &ctx()));
    }

    #[test]
    fn adj_rib_out_suppresses_duplicates() {
        let mut out = AdjRibOut::default();
        let px = p("10.0.0.0/8");
        let attrs = Rc::new(FirAttrs::default());
        assert!(out.advertise(px, Rc::clone(&attrs)));
        assert!(!out.advertise(px, Rc::clone(&attrs)), "same attrs: nothing to send");
        let different = Rc::new(FirAttrs { med: Some(9), ..FirAttrs::default() });
        assert!(out.advertise(px, different), "changed attrs must be re-sent");
        assert!(out.withdraw(&px));
        assert!(!out.withdraw(&px), "second withdraw is a no-op");
    }

    #[test]
    fn rib_store_insert_replace_remove_and_counts() {
        let mut rib = RibStore::new(3);
        let px = p("10.0.0.0/8");
        assert!(rib.insert(px, peer_slot(0), entry(|_| {}, ebgp_src(5))).is_none());
        assert!(
            rib.insert(px, peer_slot(0), entry(|a| a.med = Some(1), ebgp_src(5))).is_some(),
            "same slot replaces"
        );
        assert!(rib.insert(px, peer_slot(1), entry(|_| {}, ebgp_src(6))).is_none());
        assert_eq!(rib.adj_in_len(), 2);
        assert_eq!(rib.slot_len(peer_slot(0)), 1);
        assert_eq!(rib.candidates_cloned(&px).len(), 2);
        assert_eq!(rib.candidate(&px, peer_slot(0)).unwrap().attrs.med, Some(1));
        assert!(rib.remove(&px, peer_slot(0)).is_some());
        assert!(rib.remove(&px, peer_slot(0)).is_none(), "second remove is a no-op");
        assert_eq!(rib.adj_in_len(), 1);
        assert!(rib.remove(&px, peer_slot(1)).is_some());
        assert!(rib.net_prefixes().is_empty(), "empty net is dropped");
    }

    #[test]
    fn rib_store_candidates_stay_in_slot_order() {
        let mut rib = RibStore::new(4);
        let px = p("10.0.0.0/8");
        // Insert out of order; the scan order must be ascending slots
        // (local first, then peers) like the old full-pass loop.
        rib.insert(px, peer_slot(2), entry(|_| {}, ebgp_src(8)));
        rib.insert(px, LOCAL_SLOT, entry(|_| {}, RouteSource::local(1, 65000)));
        rib.insert(px, peer_slot(0), entry(|_| {}, ebgp_src(6)));
        let slots: Vec<usize> = rib.candidates_cloned(&px).iter().map(|(s, _)| *s).collect();
        assert_eq!(slots, vec![LOCAL_SLOT, peer_slot(0), peer_slot(2)]);
    }

    #[test]
    fn rib_store_committed_best_survives_candidate_removal() {
        let mut rib = RibStore::new(2);
        let px = p("192.0.2.0/24");
        let e = entry(|_| {}, ebgp_src(5));
        rib.insert(px, peer_slot(0), e.clone());
        rib.commit_best(px, Some((peer_slot(0), e)));
        assert_eq!(rib.loc_len(), 1);
        assert_eq!(rib.best_slot(&px), Some(peer_slot(0)));
        // Withdraw the candidate: the committed best stays visible until
        // the next decision commits None (the old LocRib held clones).
        assert!(rib.remove(&px, peer_slot(0)).is_some());
        assert!(rib.best(&px).is_some());
        assert_eq!(rib.loc_len(), 1);
        rib.commit_best(px, None);
        assert_eq!(rib.loc_len(), 0);
        assert!(rib.net_prefixes().is_empty());
    }

    #[test]
    fn rib_store_iter_best_is_prefix_ordered() {
        let mut rib = RibStore::new(2);
        for s in ["192.0.2.0/24", "10.0.0.0/8", "10.0.0.0/16", "172.16.0.0/12"] {
            let px = p(s);
            let e = entry(|_| {}, ebgp_src(5));
            rib.insert(px, peer_slot(0), e.clone());
            rib.commit_best(px, Some((peer_slot(0), e)));
        }
        let got: Vec<Ipv4Prefix> = rib.iter_best().map(|(px, _)| px).collect();
        let mut want = got.clone();
        want.sort();
        assert_eq!(got, want, "trie pre-order is (addr, len) order — no sort needed");
    }

    #[test]
    fn rib_store_flush_slot_reports_best_affected_or_all() {
        let mut rib = RibStore::new(3);
        let a = p("10.0.0.0/8");
        let b = p("192.0.2.0/24");
        for px in [a, b] {
            rib.insert(px, peer_slot(0), entry(|_| {}, ebgp_src(5)));
            rib.insert(px, peer_slot(1), entry(|_| {}, ebgp_src(6)));
        }
        // Best for `a` from slot 1, for `b` from slot 2.
        rib.commit_best(a, rib.candidates_cloned(&a).first().cloned());
        rib.commit_best(b, rib.candidates_cloned(&b).last().cloned());

        let affected = rib.flush_slot(peer_slot(0), false);
        assert_eq!(affected, vec![a], "only the net whose best came from the slot");
        assert_eq!(rib.slot_len(peer_slot(0)), 0);
        assert_eq!(rib.slot_len(peer_slot(1)), 2);

        let affected = rib.flush_slot(peer_slot(1), true);
        assert_eq!(affected, vec![a, b], "all=true reports every removal, prefix-ordered");
    }
}
