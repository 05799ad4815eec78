//! The WREN daemon: netsim node, channel driver, rtable pipeline,
//! xBGP insertion points.

use crate::config::WrenConfig;
use crate::ealist::EaList;
use crate::proto::{Channel, ConnState};
use crate::rtable::{RTable, Rte, SrcId, TableChange};
use crate::xbgp_glue::{EaAccess, WrenXbgpCtx};
use netsim::{LinkId, Node, NodeCtx};
use rpki::{RoaHashTable, RoaTable, RovState};
use std::any::Any;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;
use xbgp_core::api::{self, InsertionPoint, PeerInfo, PeerType};
use xbgp_core::{Manifest, Vmm, VmmOutcome};
use xbgp_obs::trace::{pack_prefix, TraceConfig, TraceDump, TraceKind, NO_EXT, NO_POINT};
use xbgp_obs::{Histogram, Snapshot};
use xbgp_rib::{push_rib_gauges, DirtySet, RibCounters};
use xbgp_wire::attr::encode_attrs;
use xbgp_wire::{Ipv4Prefix, Message, NotificationMsg, OpenMsg, UpdateMsg, MAX_MSG_LEN};

/// Harness-visible counters.
#[derive(Debug, Default, Clone)]
pub struct WrenStats {
    pub updates_rx: u64,
    pub prefixes_rx: u64,
    pub withdrawals_rx: u64,
    pub updates_tx: u64,
    pub prefixes_tx: u64,
    pub withdrawals_tx: u64,
    pub first_update_rx: Option<u64>,
    pub last_route_change: Option<u64>,
    pub sessions_established: u64,
    pub rov_valid: u64,
    pub rov_invalid: u64,
    pub rov_not_found: u64,
    pub xbgp_rejected: u64,
    /// Filter-point runs where an extension accepted the route (a
    /// `Value` other than reject).
    pub xbgp_accepted: u64,
    /// Decision-point runs resolved by an extension instead of the
    /// native comparison.
    pub xbgp_decisions: u64,
    /// Channel state transitions, indexed by target state
    /// ([`FSM_TO_OPEN_WAIT`] …).
    pub fsm_transitions: [u64; 4],
}

/// Indices into [`WrenStats::fsm_transitions`], one per target state.
pub const FSM_TO_OPEN_WAIT: usize = 0;
pub const FSM_TO_KEEPALIVE_WAIT: usize = 1;
pub const FSM_TO_UP: usize = 2;
pub const FSM_TO_DOWN: usize = 3;

/// Label values for the transition counters, matching the indices above.
const FSM_STATE_NAMES: [&str; 4] = ["open_wait", "keepalive_wait", "up", "down"];

/// Dense index of an insertion point into the hook-latency table.
fn pindex(p: InsertionPoint) -> usize {
    InsertionPoint::ALL.iter().position(|q| *q == p).expect("point in ALL")
}

const TK_KEEPALIVE: u64 = 0;
const TK_HOLD: u64 = 1;

/// The WREN BGP daemon. See the crate documentation.
pub struct WrenDaemon {
    cfg: WrenConfig,
    channels: Vec<Channel>,
    link_to_channel: HashMap<LinkId, usize>,
    table: RTable,
    /// Nets whose best route was changed by the withdraw path of the
    /// current UPDATE batch and not yet re-exported. Drained (in prefix
    /// order) at the end of the batch, so a storm touching one net many
    /// times propagates it once.
    dirty: DirtySet,
    /// Shared `xbgp_rib_*` churn accounting (same block as FIR).
    rib_counters: RibCounters,
    /// What each channel has been sent: net → advertised attrs.
    exported: Vec<HashMap<Ipv4Prefix, Rc<EaList>>>,
    /// Per-channel pending exports (BIRD's tx event queue): batched into
    /// shared UPDATEs at flush points so the encode insertion point and
    /// message framing amortize over routes sharing attributes.
    txq: Vec<TxQueue>,
    vmm: Vmm,
    /// WREN's native origin validation: the hash table (§3.4).
    roa: Option<RoaHashTable>,
    /// The xBGP-layer ROA store for `rpki_check_origin`.
    xbgp_rov: Option<RoaHashTable>,
    pub stats: WrenStats,
    pub logs: Vec<String>,
    ext_rib_adds: Vec<(Ipv4Prefix, u32)>,
    /// Timing instrumentation on? (mirrors `WrenConfig::metrics`).
    metrics: bool,
    /// Wall-clock nanoseconds around each insertion-point hook, context
    /// marshalling included. Indexed by [`pindex`]; filled only when
    /// `metrics` is set.
    hook_ns: [Histogram; 5],
}

impl WrenDaemon {
    /// Build a daemon. Panics on an invalid xBGP manifest (startup-fatal
    /// configuration error).
    pub fn new(cfg: WrenConfig) -> WrenDaemon {
        let mut vmm = match &cfg.xbgp {
            Some(m) => Vmm::from_manifest(m).expect("invalid xBGP manifest"),
            None => Vmm::from_manifest(&Manifest::new()).expect("empty manifest"),
        };
        if cfg.metrics {
            vmm.enable_metrics();
        }
        if let Some(tc) = cfg.trace {
            vmm.enable_trace(tc);
        }
        if cfg.profile {
            vmm.enable_profile();
        }
        vmm.set_engine(cfg.engine);
        let mk_hash = |roas: &Vec<rpki::Roa>| {
            let mut t = RoaHashTable::new();
            for r in roas {
                t.insert(*r);
            }
            t
        };
        let roa = cfg.roa_table.as_ref().map(mk_hash);
        let xbgp_rov = cfg.xbgp_roas.as_ref().map(mk_hash);
        let channels: Vec<Channel> =
            cfg.channels.iter().map(|c| Channel::new(c.clone(), cfg.local_as)).collect();
        let link_to_channel = cfg.channels.iter().enumerate().map(|(i, c)| (c.link, i)).collect();
        let n = channels.len();
        let metrics = cfg.metrics;
        WrenDaemon {
            cfg,
            channels,
            link_to_channel,
            table: RTable::new(),
            dirty: DirtySet::new(),
            rib_counters: RibCounters::new(),
            exported: (0..n).map(|_| HashMap::new()).collect(),
            txq: (0..n).map(|_| TxQueue::default()).collect(),
            vmm,
            roa,
            xbgp_rov,
            stats: WrenStats::default(),
            logs: Vec::new(),
            ext_rib_adds: Vec::new(),
            metrics,
            hook_ns: Default::default(),
        }
    }

    /// Turn on timing instrumentation at runtime (same effect as
    /// `WrenConfig::metrics`).
    pub fn enable_metrics(&mut self) {
        self.metrics = true;
        self.vmm.enable_metrics();
    }

    /// Attach a route-scoped flight recorder at runtime (same effect as
    /// `WrenConfig::trace`).
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        self.vmm.enable_trace(cfg);
    }

    /// Turn on the VM execution profiler at runtime.
    pub fn enable_profile(&mut self) {
        self.vmm.enable_profile();
    }

    /// Drain the flight recorder: ring contents, interned extension names
    /// and accumulated fault postmortems. `None` when tracing is off.
    pub fn take_trace(&mut self) -> Option<TraceDump> {
        self.vmm.take_trace()
    }

    /// Start a hook timer when instrumentation is on.
    fn hook_start(&self) -> Option<Instant> {
        self.metrics.then(Instant::now)
    }

    /// Record the elapsed time of one insertion-point hook.
    fn hook_end(&self, point: InsertionPoint, start: Option<Instant>) {
        if let Some(t0) = start {
            self.hook_ns[pindex(point)].observe(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Full observability snapshot: daemon counters and gauges, hook-site
    /// latency histograms (when instrumentation is on) and the VMM's
    /// per-point / per-extension metrics, all labelled `daemon="bgp-wren"`.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        let st = &self.stats;
        s.push_counter("xbgp_daemon_updates_rx_total", &[], st.updates_rx);
        s.push_counter("xbgp_daemon_updates_tx_total", &[], st.updates_tx);
        s.push_counter("xbgp_daemon_prefixes_rx_total", &[], st.prefixes_rx);
        s.push_counter("xbgp_daemon_prefixes_tx_total", &[], st.prefixes_tx);
        s.push_counter("xbgp_daemon_withdrawals_rx_total", &[], st.withdrawals_rx);
        s.push_counter("xbgp_daemon_withdrawals_tx_total", &[], st.withdrawals_tx);
        s.push_counter("xbgp_daemon_sessions_established_total", &[], st.sessions_established);
        for (state, n) in [
            ("valid", st.rov_valid),
            ("invalid", st.rov_invalid),
            ("not_found", st.rov_not_found),
        ] {
            s.push_counter("xbgp_daemon_rov_total", &[("state", state)], n);
        }
        s.push_counter("xbgp_daemon_filter_rejects_total", &[], st.xbgp_rejected);
        s.push_counter("xbgp_daemon_filter_accepts_total", &[], st.xbgp_accepted);
        s.push_counter("xbgp_daemon_decision_overrides_total", &[], st.xbgp_decisions);
        for (i, to) in FSM_STATE_NAMES.iter().enumerate() {
            s.push_counter(
                "xbgp_daemon_fsm_transitions_total",
                &[("to", to)],
                st.fsm_transitions[i],
            );
        }
        s.push_gauge("xbgp_daemon_table_size", &[], self.table.len() as i64);
        s.push_gauge(
            "xbgp_daemon_exported_routes",
            &[],
            self.exported.iter().map(HashMap::len).sum::<usize>() as i64,
        );
        s.push_gauge(
            "xbgp_daemon_sessions_up",
            &[],
            self.channels.iter().filter(|c| c.up()).count() as i64,
        );
        self.rib_counters.push(&mut s);
        push_rib_gauges(&mut s, self.table.route_len(), self.table.len(), self.dirty.len());
        if self.metrics {
            for p in InsertionPoint::ALL {
                s.push_histogram(
                    "xbgp_daemon_hook_ns",
                    &[("point", p.name())],
                    self.hook_ns[pindex(p)].snapshot(),
                );
            }
        }
        s.merge(self.vmm.metrics_snapshot())
            .expect("daemon and VMM share the bucket layout");
        s.with_labels(&[("daemon", "bgp-wren")])
    }

    /// Number of nets in the table.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Best route for a net.
    pub fn best_route(&self, net: &Ipv4Prefix) -> Option<&Rte> {
        self.table.best(net)
    }

    /// Nets in prefix order. The table trie's pre-order iteration *is*
    /// `(addr, len)` order, so no sort is needed for determinism.
    pub fn nets(&self) -> Vec<Ipv4Prefix> {
        self.table.iter_best().map(|(n, _)| n).collect()
    }

    /// Full table contents as `(net, wire-encoded best-route attributes)`,
    /// in prefix order straight off the trie (no sort — the iteration
    /// order is already the sorted order). The wire form is `Send` and
    /// implementation-neutral, so per-shard dumps can cross threads and
    /// be compared byte-for-byte against a sequential run's dump.
    pub fn loc_rib_dump(&self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        self.table
            .iter_best()
            .map(|(n, r)| (n, encode_attrs(&r.eattrs.to_wire(), 4)))
            .collect()
    }

    /// From-scratch Loc-RIB recomputation — the churn oracle. For every
    /// net, re-derive the best route by folding the full route list
    /// through the live comparator, ignoring the incrementally-maintained
    /// list head. Byte-identical to [`Self::loc_rib_dump`] whenever the
    /// incremental engine is correct. Takes `&mut self` because the
    /// comparator may run ③ decision extensions.
    pub fn oracle_loc_rib_dump(&mut self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        let mut out = Vec::new();
        for net in self.table.net_keys() {
            let routes = self.table.routes(&net).to_vec();
            let mut best: Option<Rte> = None;
            for rte in routes {
                // Folding in list order keeps ties on the earlier entry,
                // matching the stable insertion order the head reflects.
                let wins = match &best {
                    None => true,
                    Some(b) => self.rte_better(&rte, b),
                };
                if wins {
                    best = Some(rte);
                }
            }
            if let Some(b) = best {
                out.push((net, encode_attrs(&b.eattrs.to_wire(), 4)));
            }
        }
        out
    }

    pub fn session_established(&self, neighbor: u32) -> bool {
        self.channels.iter().any(|c| c.cfg.neighbor == neighbor && c.up())
    }

    pub fn xbgp_stats(&self) -> Vec<xbgp_core::vmm::ExtensionStats> {
        self.vmm.stats()
    }

    /// Read a block from an extension program's persistent memory.
    pub fn xbgp_shared_read(&self, group: &str, key: u64) -> Option<Vec<u8>> {
        self.vmm.shared_read(group, key)
    }

    fn cluster_id(&self) -> u32 {
        self.cfg.rr_cluster_id.unwrap_or(self.cfg.router_id)
    }

    fn peer_info(&self, ch: usize) -> PeerInfo {
        let c = &self.channels[ch];
        PeerInfo {
            router_id: c.cfg.neighbor,
            asn: c.cfg.neighbor_as,
            peer_type: if c.ibgp { PeerType::Ibgp } else { PeerType::Ebgp },
            local_router_id: self.cfg.router_id,
            local_asn: self.cfg.local_as,
            flags: if c.cfg.rr_client { api::PEER_FLAG_RR_CLIENT } else { 0 },
        }
    }

    fn source_info_bytes(&self, rte: &Rte) -> [u8; 24] {
        let mut flags = 0;
        if rte.src_rr_client {
            flags |= api::PEER_FLAG_RR_CLIENT;
        }
        if rte.src == SrcId::Local {
            flags |= api::PEER_FLAG_LOCAL;
        }
        let pi = PeerInfo {
            router_id: rte.src_addr,
            asn: rte.src_asn,
            peer_type: if rte.src_ibgp { PeerType::Ibgp } else { PeerType::Ebgp },
            local_router_id: self.cfg.router_id,
            local_asn: self.cfg.local_as,
            flags,
        };
        pi.to_bytes()
    }

    fn igp_metric(&self, nexthop: u32) -> u32 {
        match &self.cfg.igp {
            Some(igp) => igp.borrow().metric(self.cfg.router_id, nexthop),
            None => 0,
        }
    }

    fn nexthop_info(&self, ea: &EaList) -> api::NextHopInfo {
        let nh = ea.next_hop().unwrap_or(0);
        let metric = self.igp_metric(nh);
        api::NextHopInfo { addr: nh, igp_metric: metric, reachable: metric != u32::MAX }
    }

    // -----------------------------------------------------------------
    // Preference
    // -----------------------------------------------------------------

    /// Table update using the native comparator (fast path; no extension
    /// code runs, so the comparator can borrow the table context freely).
    fn table_update_fast(&mut self, net: Ipv4Prefix, rte: Rte) -> TableChange {
        let dlp = self.cfg.default_local_pref;
        let igp = self.cfg.igp.clone();
        let router_id = self.cfg.router_id;
        let metric = move |nh: u32| match &igp {
            Some(g) => g.borrow().metric(router_id, nh),
            None => 0,
        };
        self.table.update(net, rte, &mut |a, b| rte_better_native(a, b, dlp, &metric))
    }

    /// Preference with the ③ BGP_DECISION point consulted first.
    fn rte_better(&mut self, a: &Rte, b: &Rte) -> bool {
        if self.vmm.has_extensions(InsertionPoint::BgpDecision) {
            let best_wire = encode_attrs(&b.eattrs.to_wire(), 4);
            let peer = PeerInfo {
                router_id: a.src_addr,
                asn: a.src_asn,
                peer_type: if a.src_ibgp { PeerType::Ibgp } else { PeerType::Ebgp },
                local_router_id: self.cfg.router_id,
                local_asn: self.cfg.local_as,
                flags: 0,
            };
            let nexthop = self.nexthop_info(&a.eattrs);
            let t0 = self.hook_start();
            let hook_args = [best_wire.as_slice()];
            let mut hctx = WrenXbgpCtx {
                peer,
                args: &hook_args,
                eattrs: EaAccess::Read(&a.eattrs),
                net: None,
                nexthop: Some(nexthop),
                xtra: &self.cfg.xtra,
                out_buf: None,
                rov: self.xbgp_rov.as_ref(),
                rib_adds: &mut self.ext_rib_adds,
                logs: &mut self.logs,
            };
            let outcome = self.vmm.run(InsertionPoint::BgpDecision, &mut hctx);
            self.hook_end(InsertionPoint::BgpDecision, t0);
            match outcome {
                VmmOutcome::Value(v) => {
                    self.stats.xbgp_decisions += 1;
                    return v == api::DECISION_PREFER_NEW;
                }
                // The decision point has a sound native answer, so both
                // fallback and abort degrade to the native comparison.
                VmmOutcome::Fallback | VmmOutcome::Aborted => {}
            }
        }
        let dlp = self.cfg.default_local_pref;
        let metric = |nh: u32| self.igp_metric(nh);
        rte_better_native(a, b, dlp, &metric)
    }

    /// Is this route usable as best (nexthop reachable for iBGP routes)?
    fn eligible(&self, rte: &Rte) -> bool {
        if self.cfg.igp.is_none() || !rte.src_ibgp || rte.src == SrcId::Local {
            return true;
        }
        self.igp_metric(rte.eattrs.next_hop().unwrap_or(0)) != u32::MAX
    }

    /// First eligible route of a net's preference-ordered list.
    fn best_eligible(&self, net: &Ipv4Prefix) -> Option<Rte> {
        self.table.routes(net).iter().find(|r| self.eligible(r)).cloned()
    }

    // -----------------------------------------------------------------
    // Inbound
    // -----------------------------------------------------------------

    fn rx_update(&mut self, ctx: &mut NodeCtx<'_>, ch: usize, upd: UpdateMsg, raw_body: &[u8]) {
        self.stats.updates_rx += 1;
        if self.stats.first_update_rx.is_none() {
            self.stats.first_update_rx = Some(ctx.now());
        }
        if let Some(t) = self.vmm.tracer_mut() {
            t.set_now(ctx.now());
            t.on_ingest(ch as u64, upd.nlri.len() as u64);
        }

        for net in &upd.withdrawn {
            self.stats.withdrawals_rx += 1;
            let (change, removed) = self.table.withdraw(*net, SrcId::Channel(ch));
            if removed {
                self.rib_counters.withdrawals += 1;
            }
            // Defer the re-export: mark the net and propagate once per
            // batch at drain time. Propagation only reads the *current*
            // best route, so a storm touching the same net many times in
            // one batch collapses to a single export decision. Non-best
            // removals need nothing at all.
            if !matches!(change, TableChange::NoBestChange) {
                self.dirty.mark(*net);
            }
        }
        if upd.nlri.is_empty() {
            // Withdraw-only UPDATE: propagate the deferred best-route
            // changes, which may queue re-announcements or withdrawals.
            self.drain_dirty(ctx);
            self.flush_all(ctx);
            return;
        }

        let mut eattrs = match EaList::from_wire(&upd.attrs) {
            Ok(l) => l,
            Err(e) => {
                // Propagate the withdraw-loop deferrals first: the old
                // inline path had already queued their exports when the
                // malformed attributes surfaced, and `channel_down`'s
                // flush sends whatever is queued.
                self.drain_dirty(ctx);
                self.logs.push(format!("malformed UPDATE on channel {ch}: {e}"));
                self.tx(ctx, ch, &Message::Notification(NotificationMsg::from_error(&e)));
                self.channel_down(ctx, ch);
                return;
            }
        };

        let peer_info = self.peer_info(ch);
        // ① BGP_RECEIVE_MESSAGE.
        if self.vmm.has_extensions(InsertionPoint::BgpReceiveMessage) {
            let t0 = self.hook_start();
            let hook_args = [raw_body];
            let mut hctx = WrenXbgpCtx {
                peer: peer_info,
                args: &hook_args,
                eattrs: EaAccess::Mut(&mut eattrs),
                net: None,
                nexthop: None,
                xtra: &self.cfg.xtra,
                out_buf: None,
                rov: self.xbgp_rov.as_ref(),
                rib_adds: &mut self.ext_rib_adds,
                logs: &mut self.logs,
            };
            let _ = self.vmm.run(InsertionPoint::BgpReceiveMessage, &mut hctx);
            self.hook_end(InsertionPoint::BgpReceiveMessage, t0);
        }

        let ibgp = self.channels[ch].ibgp;
        // Loop prevention. These early returns still owe the withdraw
        // loop its deferred propagations (queued, like the old inline
        // path, though not flushed until the next flush point).
        if !ibgp && eattrs.as_path_contains(self.cfg.local_as) {
            self.drain_dirty(ctx);
            return;
        }
        if ibgp && self.cfg.rr_enabled {
            if eattrs.originator_id() == Some(self.cfg.router_id) {
                self.drain_dirty(ctx);
                return;
            }
            if eattrs.cluster_list_contains(self.cluster_id()) {
                self.drain_dirty(ctx);
                return;
            }
        }

        let shared = Rc::new(eattrs);
        let inbound_ext = self.vmm.has_extensions(InsertionPoint::BgpInboundFilter);
        let nexthop = self.nexthop_info(&shared);
        let (src_addr, src_asn, src_rr_client) = {
            let c = &self.channels[ch];
            (c.cfg.neighbor, c.cfg.neighbor_as, c.cfg.rr_client)
        };

        for net in &upd.nlri {
            self.stats.prefixes_rx += 1;
            if let Some(t) = self.vmm.tracer_mut() {
                t.begin_route(pack_prefix(net.addr(), net.len()));
            }
            let mut route_attrs = Rc::clone(&shared);

            // ② BGP_INBOUND_FILTER.
            if inbound_ext {
                let t0 = self.hook_start();
                let mut modified = None;
                let mut hctx = WrenXbgpCtx {
                    peer: peer_info,
                    args: &[],
                    eattrs: EaAccess::Cow { base: &shared, modified: &mut modified },
                    net: Some(*net),
                    nexthop: Some(nexthop),
                    xtra: &self.cfg.xtra,
                    out_buf: None,
                    rov: self.xbgp_rov.as_ref(),
                    rib_adds: &mut self.ext_rib_adds,
                    logs: &mut self.logs,
                };
                let outcome = self.vmm.run(InsertionPoint::BgpInboundFilter, &mut hctx);
                self.hook_end(InsertionPoint::BgpInboundFilter, t0);
                match outcome {
                    VmmOutcome::Value(v) if v == api::FILTER_REJECT => {
                        self.stats.xbgp_rejected += 1;
                        self.withdraw_and_propagate(ctx, *net, ch);
                        // Close the route scope on the early-reject path
                        // too: a leaked scope would let the next route's
                        // events inherit this route's attribution.
                        if let Some(t) = self.vmm.tracer_mut() {
                            t.end_route();
                        }
                        continue;
                    }
                    VmmOutcome::Value(_) => self.stats.xbgp_accepted += 1,
                    VmmOutcome::Fallback => {}
                    // `on_fault = abort`: the filter failed, so fail
                    // closed — reject the route rather than widen policy.
                    VmmOutcome::Aborted => {
                        self.stats.xbgp_rejected += 1;
                        self.withdraw_and_propagate(ctx, *net, ch);
                        if let Some(t) = self.vmm.tracer_mut() {
                            t.end_route();
                        }
                        continue;
                    }
                }
                if let Some(m) = modified {
                    route_attrs = Rc::new(m);
                }
            }

            // Native origin validation (hash table; tags, never drops).
            let rov = self.roa.as_ref().map(|table| {
                let state = match route_attrs.origin_asn() {
                    Some(origin) => table.validate(*net, origin),
                    None => RovState::NotFound,
                };
                match state {
                    RovState::Valid => self.stats.rov_valid += 1,
                    RovState::Invalid => self.stats.rov_invalid += 1,
                    RovState::NotFound => self.stats.rov_not_found += 1,
                }
                state
            });

            let rte = Rte {
                src: SrcId::Channel(ch),
                src_addr,
                src_asn,
                src_ibgp: ibgp,
                src_rr_client,
                eattrs: route_attrs,
                rov,
            };
            let change = if self.vmm.has_extensions(InsertionPoint::BgpDecision) {
                self.update_with_decision_ext(*net, rte)
            } else {
                self.table_update_fast(*net, rte)
            };
            self.rib_counters.updates_applied += 1;
            if !matches!(change, TableChange::NoBestChange) {
                // This propagation re-exports the net from its current
                // best, which already reflects any earlier withdraw-loop
                // removal — the deferred propagation is subsumed.
                self.dirty.unmark(net);
            }
            self.propagate(ctx, *net, change);
            // Every `begin_route` above is matched here or on the reject/
            // abort `continue`s, so no scope outlives its route.
            if let Some(t) = self.vmm.tracer_mut() {
                t.end_route();
            }
        }

        // Extension-installed routes.
        let adds: Vec<(Ipv4Prefix, u32)> = self.ext_rib_adds.drain(..).collect();
        for (net, nexthop) in adds {
            let rte = self.local_rte(nexthop);
            let change = self.table_update_fast(net, rte);
            self.rib_counters.updates_applied += 1;
            if !matches!(change, TableChange::NoBestChange) {
                self.dirty.unmark(&net);
            }
            self.propagate(ctx, net, change);
        }
        self.drain_dirty(ctx);
        self.flush_all(ctx);
    }

    /// Shared reject/abort handling in the inbound filter: drop any
    /// previously accepted route from this channel and re-export inline
    /// (inside the route's trace scope, so the decision is attributed).
    fn withdraw_and_propagate(&mut self, ctx: &mut NodeCtx<'_>, net: Ipv4Prefix, ch: usize) {
        let (change, removed) = self.table.withdraw(net, SrcId::Channel(ch));
        if removed {
            self.rib_counters.withdrawals += 1;
        }
        if !matches!(change, TableChange::NoBestChange) {
            // Same subsumption as the accept path: the inline propagation
            // below re-exports from the current best.
            self.dirty.unmark(&net);
        }
        self.propagate(ctx, net, change);
    }

    /// Propagate the deferred withdraw-path changes: every net still
    /// marked dirty is re-exported from its current best route (or
    /// withdrawn when gone), in prefix order. Inline NLRI processing
    /// unmarks nets it already re-exported, so each net is propagated at
    /// most once per batch. Under `full_recompute` this additionally
    /// degrades to the ablation baseline: resort and re-propagate every
    /// net in the table.
    fn drain_dirty(&mut self, ctx: &mut NodeCtx<'_>) {
        if !self.dirty.is_empty() {
            let batch = self.dirty.drain_ordered();
            self.rib_counters.delta_batch_size.observe(batch.len() as u64);
            for net in batch {
                // The mark means the net's head changed; whether it is a
                // re-announce or a withdrawal falls out of the current
                // table state (propagation reads only the current best,
                // so `BestChanged` vs `NetGone` steer the same arm).
                let change = if self.table.routes(&net).is_empty() {
                    TableChange::NetGone
                } else {
                    TableChange::BestChanged
                };
                self.propagate(ctx, net, change);
            }
        }
        if self.cfg.full_recompute {
            self.full_resort_sweep(ctx);
        }
    }

    /// The full-recompute ablation baseline: re-run the comparator over
    /// every net in the table and propagate any head changes. With the
    /// strict total preference order and the stable resort this is
    /// byte-identical to the incremental path — it exists only to
    /// measure what the delta engine saves.
    fn full_resort_sweep(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.vmm.has_extensions(InsertionPoint::BgpDecision) {
            // Slow path mirror of `update_with_decision_ext`: the
            // comparator may run extension code, so each list is pulled
            // out, stably resorted, and reinserted.
            for net in self.table.net_keys() {
                let routes = self.table.routes(&net).to_vec();
                let old_best = routes.first().map(|r| r.src);
                let mut sorted: Vec<Rte> = Vec::with_capacity(routes.len());
                for rte in routes {
                    let pos = sorted
                        .iter()
                        .position(|s| self.rte_better(&rte, s))
                        .unwrap_or(sorted.len());
                    sorted.insert(pos, rte);
                }
                let new_best = sorted.first().map(|r| r.src);
                self.table.replace_net(net, sorted);
                let change = if new_best == old_best {
                    TableChange::NoBestChange
                } else {
                    TableChange::BestChanged
                };
                self.propagate(ctx, net, change);
            }
            return;
        }
        let dlp = self.cfg.default_local_pref;
        let igp = self.cfg.igp.clone();
        let router_id = self.cfg.router_id;
        let metric = move |nh: u32| match &igp {
            Some(g) => g.borrow().metric(router_id, nh),
            None => 0,
        };
        for net in self.table.net_keys() {
            let change = self.table.resort(&net, &mut |a, b| rte_better_native(a, b, dlp, &metric));
            self.propagate(ctx, net, change);
        }
    }

    fn update_with_decision_ext(&mut self, net: Ipv4Prefix, rte: Rte) -> TableChange {
        // Slow path: the comparator may run extension code, so the list is
        // pulled out, compared, and reinserted.
        let mut routes: Vec<Rte> = self.table.routes(&net).to_vec();
        routes.retain(|r| r.src != rte.src);
        let mut pos = routes.len();
        for (i, incumbent) in routes.iter().enumerate() {
            if self.rte_better(&rte, incumbent) {
                pos = i;
                break;
            }
        }
        routes.insert(pos, rte.clone());
        // Rebuild the net in the table.
        let src_order: Vec<Rte> = routes;
        let old_best_src = self.table.best(&net).map(|r| r.src);
        self.table.replace_net(net, src_order);
        let new_best_src = self.table.best(&net).map(|r| r.src);
        if old_best_src != new_best_src || new_best_src == Some(rte.src) {
            TableChange::BestChanged
        } else {
            TableChange::NoBestChange
        }
    }

    fn local_rte(&self, nexthop: u32) -> Rte {
        let eattrs = EaList::from_wire(&[
            xbgp_wire::PathAttr::Origin(xbgp_wire::attr::Origin::Igp),
            xbgp_wire::PathAttr::AsPath(xbgp_wire::AsPath::empty()),
            xbgp_wire::PathAttr::NextHop(nexthop),
        ])
        .expect("local attrs well-formed");
        Rte {
            src: SrcId::Local,
            src_addr: self.cfg.router_id,
            src_asn: self.cfg.local_as,
            src_ibgp: true,
            src_rr_client: false,
            eattrs: Rc::new(eattrs),
            rov: None,
        }
    }

    // -----------------------------------------------------------------
    // Outbound
    // -----------------------------------------------------------------

    /// React to a table change on `net`: re-announce or withdraw on every
    /// channel.
    fn propagate(&mut self, ctx: &mut NodeCtx<'_>, net: Ipv4Prefix, change: TableChange) {
        if let Some(t) = self.vmm.tracer_mut() {
            let best_changed = !matches!(change, TableChange::NoBestChange);
            t.record(
                TraceKind::Decision,
                NO_POINT,
                NO_EXT,
                pack_prefix(net.addr(), net.len()),
                u64::from(best_changed),
            );
        }
        match change {
            TableChange::NoBestChange => {}
            TableChange::BestChanged | TableChange::NetGone => {
                self.stats.last_route_change = Some(ctx.now());
                self.rib_counters.best_changes += 1;
                let best = self.best_eligible(&net);
                for ch in 0..self.channels.len() {
                    match &best {
                        Some(rte) => self.announce_one(ctx, ch, net, rte),
                        None => self.withdraw_one(ctx, ch, net),
                    }
                }
            }
        }
    }

    fn withdraw_one(&mut self, _ctx: &mut NodeCtx<'_>, ch: usize, net: Ipv4Prefix) {
        if !self.channels[ch].up() {
            return;
        }
        if self.exported[ch].remove(&net).is_some() {
            self.txq[ch].withdrawals.push(net);
        }
    }

    /// Export one route to one channel: policy and transform here, then
    /// into the channel's tx queue; framing and the encode insertion point
    /// happen at flush time over whole batches (BIRD's tx event queue).
    fn announce_one(&mut self, ctx: &mut NodeCtx<'_>, ch: usize, net: Ipv4Prefix, rte: &Rte) {
        if !self.channels[ch].up() {
            return;
        }
        // Split horizon, with implicit withdraw of a previously advertised
        // copy (the neighbor became our best source for this net).
        if rte.src != SrcId::Local && rte.src_addr == self.channels[ch].cfg.neighbor {
            self.withdraw_one(ctx, ch, net);
            return;
        }

        // ④ BGP_OUTBOUND_FILTER.
        let allowed = if self.vmm.has_extensions(InsertionPoint::BgpOutboundFilter) {
            let t0 = self.hook_start();
            let peer_info = self.peer_info(ch);
            let nexthop = self.nexthop_info(&rte.eattrs);
            let src_bytes = self.source_info_bytes(rte);
            let hook_args = [&src_bytes[..]];
            let mut hctx = WrenXbgpCtx {
                peer: peer_info,
                args: &hook_args,
                eattrs: EaAccess::Read(&rte.eattrs),
                net: Some(net),
                nexthop: Some(nexthop),
                xtra: &self.cfg.xtra,
                out_buf: None,
                rov: self.xbgp_rov.as_ref(),
                rib_adds: &mut self.ext_rib_adds,
                logs: &mut self.logs,
            };
            let outcome = self.vmm.run(InsertionPoint::BgpOutboundFilter, &mut hctx);
            self.hook_end(InsertionPoint::BgpOutboundFilter, t0);
            match outcome {
                VmmOutcome::Value(v) if v == api::FILTER_REJECT => {
                    self.stats.xbgp_rejected += 1;
                    false
                }
                VmmOutcome::Value(_) => {
                    self.stats.xbgp_accepted += 1;
                    true
                }
                VmmOutcome::Fallback => self.export_policy_native(ch, rte),
                // Fail closed: a broken `abort` filter exports nothing.
                VmmOutcome::Aborted => {
                    self.stats.xbgp_rejected += 1;
                    false
                }
            }
        } else {
            self.export_policy_native(ch, rte)
        };
        if !allowed {
            self.withdraw_one(ctx, ch, net);
            return;
        }

        // Transform for the session type — once per (source list, route
        // source) per batch: the memo hands every later route of the
        // group the same list and group slot.
        let key = MemoKey {
            eattrs: Rc::as_ptr(&rte.eattrs) as usize,
            src: rte.src,
            src_addr: rte.src_addr,
            src_asn: rte.src_asn,
            src_ibgp: rte.src_ibgp,
            src_rr_client: rte.src_rr_client,
        };
        let (out, src_blob, group) = match self.txq[ch].memo.get(&key) {
            Some(m) => (Rc::clone(&m.out), m.src_blob, m.group),
            None => {
                let out = Rc::new(self.export_attrs(ch, rte));
                let src_blob = self.source_info_bytes(rte);
                let m = Exported {
                    _source: Rc::clone(&rte.eattrs),
                    out: Rc::clone(&out),
                    src_blob,
                    group: None,
                };
                self.txq[ch].memo.insert(key, m);
                (out, src_blob, None)
            }
        };

        // Suppress duplicates: the same list (a memo hit) or an equal one.
        if self.exported[ch]
            .get(&net)
            .is_some_and(|prev| Rc::ptr_eq(prev, &out) || **prev == *out)
        {
            return;
        }
        self.exported[ch].insert(net, Rc::clone(&out));
        if let Some(t) = self.vmm.tracer_mut() {
            t.record(
                TraceKind::Propagate,
                NO_POINT,
                NO_EXT,
                pack_prefix(net.addr(), net.len()),
                ch as u64,
            );
        }
        self.txq[ch].push(key, group, net, out, src_blob);
        let _ = ctx;
    }

    /// The attribute list `rte` is advertised with on channel `ch` (in
    /// place on a copy of the raw list — BIRD's export path copies the
    /// ea_list too).
    fn export_attrs(&self, ch: usize, rte: &Rte) -> EaList {
        let mut out = (*rte.eattrs).clone();
        if self.channels[ch].ibgp {
            if out.local_pref().is_none() {
                out.set_local_pref(self.cfg.default_local_pref);
            }
            if self.cfg.rr_enabled && rte.src != SrcId::Local && rte.src_ibgp {
                if out.originator_id().is_none() {
                    out.set(9, 0x80, rte.src_addr.to_be_bytes().to_vec());
                }
                out.cluster_list_prepend(self.cluster_id());
            }
        } else {
            out.as_path_prepend(self.cfg.local_as);
            out.set_next_hop(self.cfg.router_id);
            out.unset(5);
            out.unset(4);
            out.unset(9);
            out.unset(10);
        }
        out
    }

    /// Drain one channel's tx queue: withdrawals, then each (attributes,
    /// source) group in first-seen order, running the ⑤
    /// BGP_ENCODE_MESSAGE point once per group and framing ≤700-NLRI
    /// chunks in one reused buffer. Taking the queue also drops its
    /// export memo, on every path.
    fn flush_channel(&mut self, ctx: &mut NodeCtx<'_>, ch: usize) {
        let q = std::mem::take(&mut self.txq[ch]);
        if (q.withdrawals.is_empty() && q.groups.is_empty()) || !self.channels[ch].up() {
            return;
        }
        let width = self.channels[ch].asn_width();
        let link = self.channels[ch].cfg.link;
        let mut frame = Vec::with_capacity(MAX_MSG_LEN);
        for chunk in q.withdrawals.chunks(800) {
            self.stats.updates_tx += 1;
            self.stats.withdrawals_tx += chunk.len() as u64;
            frame.clear();
            match UpdateMsg::write_frame(&mut frame, chunk, &[], &[], &[], width) {
                Ok(()) => ctx.send(link, &frame),
                Err(e) => self.logs.push(format!("encode error on channel {ch}: {e}")),
            }
        }

        let encode_ext = self.vmm.has_extensions(InsertionPoint::BgpEncodeMessage);
        for g in q.groups {
            let mut extra = Vec::new();
            if encode_ext {
                let t0 = self.hook_start();
                let peer_info = self.peer_info(ch);
                let hook_args = [&g.src_blob[..]];
                let mut hctx = WrenXbgpCtx {
                    peer: peer_info,
                    args: &hook_args,
                    eattrs: EaAccess::Read(&g.eattrs),
                    net: g.nets.first().copied(),
                    nexthop: None,
                    xtra: &self.cfg.xtra,
                    out_buf: Some(&mut extra),
                    rov: self.xbgp_rov.as_ref(),
                    rib_adds: &mut self.ext_rib_adds,
                    logs: &mut self.logs,
                };
                let _ = self.vmm.run(InsertionPoint::BgpEncodeMessage, &mut hctx);
                self.hook_end(InsertionPoint::BgpEncodeMessage, t0);
            }
            let wire = g.eattrs.to_wire();
            for chunk in g.nets.chunks(700) {
                frame.clear();
                match UpdateMsg::write_frame(&mut frame, &[], &wire, &extra, chunk, width) {
                    Ok(()) => {
                        self.stats.updates_tx += 1;
                        self.stats.prefixes_tx += chunk.len() as u64;
                        ctx.send(link, &frame);
                    }
                    Err(e) => self.logs.push(format!("encode failed on channel {ch}: {e}")),
                }
            }
        }
    }

    /// Flush every channel's tx queue.
    fn flush_all(&mut self, ctx: &mut NodeCtx<'_>) {
        for ch in 0..self.channels.len() {
            self.flush_channel(ctx, ch);
        }
    }

    fn export_policy_native(&self, ch: usize, rte: &Rte) -> bool {
        if !self.channels[ch].ibgp {
            return true;
        }
        if rte.src == SrcId::Local || !rte.src_ibgp {
            return true;
        }
        self.cfg.rr_enabled && (rte.src_rr_client || self.channels[ch].cfg.rr_client)
    }

    /// Full-table dump when a channel comes up, in prefix order straight
    /// off the trie — deterministic wire batching without a sort.
    fn feed_channel(&mut self, ctx: &mut NodeCtx<'_>, ch: usize) {
        for net in self.table.net_keys() {
            if let Some(rte) = self.best_eligible(&net) {
                self.announce_one(ctx, ch, net, &rte);
            }
        }
    }

    // -----------------------------------------------------------------
    // Channel lifecycle and message dispatch
    // -----------------------------------------------------------------

    fn tx(&mut self, ctx: &mut NodeCtx<'_>, ch: usize, msg: &Message) {
        let width = self.channels[ch].asn_width();
        match msg.encode(width) {
            Ok(frame) => ctx.send(self.channels[ch].cfg.link, &frame),
            Err(e) => self.logs.push(format!("encode error on channel {ch}: {e}")),
        }
    }

    fn start_channel(&mut self, ctx: &mut NodeCtx<'_>, ch: usize) {
        let open =
            OpenMsg::standard(self.cfg.local_as, self.cfg.hold_time_secs, self.cfg.router_id);
        self.channels[ch].conn_state = ConnState::OpenWait;
        self.stats.fsm_transitions[FSM_TO_OPEN_WAIT] += 1;
        self.tx(ctx, ch, &Message::Open(open));
    }

    fn channel_up(&mut self, ctx: &mut NodeCtx<'_>, ch: usize) {
        self.channels[ch].conn_state = ConnState::Up;
        self.stats.fsm_transitions[FSM_TO_UP] += 1;
        self.channels[ch].last_rx = ctx.now();
        self.stats.sessions_established += 1;
        let hold = self.channels[ch].hold_ns;
        if hold > 0 {
            ctx.set_timer(hold / 3, (ch as u64) * 2 + TK_KEEPALIVE);
            ctx.set_timer(hold / 3, (ch as u64) * 2 + TK_HOLD);
        }
        self.feed_channel(ctx, ch);
        self.flush_all(ctx);
    }

    fn channel_down(&mut self, ctx: &mut NodeCtx<'_>, ch: usize) {
        if self.channels[ch].conn_state == ConnState::Down {
            return;
        }
        self.channels[ch].down();
        self.stats.fsm_transitions[FSM_TO_DOWN] += 1;
        self.exported[ch].clear();
        let before = self.table.route_len();
        let changes = self.table.flush_src(SrcId::Channel(ch));
        self.rib_counters.withdrawals += (before - self.table.route_len()) as u64;
        for (net, change) in changes {
            self.propagate(ctx, net, change);
        }
        self.flush_all(ctx);
    }

    fn rx_frame(&mut self, ctx: &mut NodeCtx<'_>, ch: usize, frame: Vec<u8>) {
        self.channels[ch].last_rx = ctx.now();
        let width = self.channels[ch].asn_width();
        let decoded = match xbgp_wire::msg::deframe(&frame) {
            Ok((ty, body)) => Message::decode_body(ty, body, width).map(|m| (m, body)),
            Err(e) => Err(e),
        };
        let (msg, body) = match decoded {
            Ok(v) => v,
            Err(e) => {
                self.logs.push(format!("bad message on channel {ch}: {e}"));
                self.tx(ctx, ch, &Message::Notification(NotificationMsg::from_error(&e)));
                self.channel_down(ctx, ch);
                return;
            }
        };
        match (self.channels[ch].conn_state, msg) {
            (ConnState::OpenWait, Message::Open(open)) => {
                match self.channels[ch].accept_open(&open, self.cfg.hold_time_secs) {
                    Ok(()) => {
                        self.stats.fsm_transitions[FSM_TO_KEEPALIVE_WAIT] += 1;
                        self.tx(ctx, ch, &Message::Keepalive)
                    }
                    Err(reason) => {
                        self.logs.push(format!("OPEN rejected on channel {ch}: {reason}"));
                        self.tx(ctx, ch, &Message::Notification(NotificationMsg::new(2, 2)));
                        self.channel_down(ctx, ch);
                    }
                }
            }
            (ConnState::KeepaliveWait, Message::Keepalive) => self.channel_up(ctx, ch),
            (ConnState::Up, Message::Update(upd)) => self.rx_update(ctx, ch, upd, body),
            (ConnState::Up, Message::Keepalive) => {}
            (_, Message::Notification(n)) => {
                self.logs.push(format!("NOTIFICATION {}/{} on channel {ch}", n.code, n.subcode));
                self.channel_down(ctx, ch);
            }
            (state, msg) => {
                self.logs
                    .push(format!("unexpected {:?} in {state:?} on channel {ch}", msg.msg_type()));
                self.tx(ctx, ch, &Message::Notification(NotificationMsg::new(5, 0)));
                self.channel_down(ctx, ch);
            }
        }
    }
}

/// One channel's pending exports for the current batch: withdrawals,
/// announcements grouped by (attribute content, source blob) in
/// first-seen order, and the batch's export memo.
#[derive(Default)]
struct TxQueue {
    withdrawals: Vec<Ipv4Prefix>,
    groups: Vec<TxGroup>,
    /// Groups by content: equal lists from different `Rc`s share one
    /// UPDATE. Hashed once per memo entry, when its first route joins.
    index: HashMap<(Rc<EaList>, [u8; 24]), usize>,
    memo: HashMap<MemoKey, Exported>,
}

/// Export memo key: the address of the route's attribute list and every
/// field of its source. The transform reads `src`, `src_addr` and
/// `src_ibgp`; the ⑤ argument blob reads all of them.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    eattrs: usize,
    src: SrcId,
    src_addr: u32,
    src_asn: u32,
    src_ibgp: bool,
    src_rr_client: bool,
}

/// A memoised export: the transformed list, the source blob and the
/// group its routes join (`None` until the first of them is queued).
struct Exported {
    /// Holds the keyed list alive, so its address cannot be freed and
    /// reused by another list while the memo lives.
    _source: Rc<EaList>,
    out: Rc<EaList>,
    src_blob: [u8; 24],
    group: Option<usize>,
}

struct TxGroup {
    eattrs: Rc<EaList>,
    src_blob: [u8; 24],
    nets: Vec<Ipv4Prefix>,
}

impl TxQueue {
    /// Queue `net` under the memo entry `key`. A known `group` is a plain
    /// push; otherwise the group is found by content (another memo entry
    /// may have opened it) or opened, and remembered for the entry.
    fn push(
        &mut self,
        key: MemoKey,
        group: Option<usize>,
        net: Ipv4Prefix,
        out: Rc<EaList>,
        src_blob: [u8; 24],
    ) {
        let i = match group {
            Some(i) => i,
            None => {
                let next = self.groups.len();
                let i = *self.index.entry((Rc::clone(&out), src_blob)).or_insert(next);
                if i == next {
                    self.groups.push(TxGroup { eattrs: out, src_blob, nets: Vec::new() });
                }
                if let Some(m) = self.memo.get_mut(&key) {
                    m.group = Some(i);
                }
                i
            }
        };
        self.groups[i].nets.push(net);
    }
}

impl Node for WrenDaemon {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let originate = self.cfg.originate.clone();
        for (net, nexthop) in originate {
            let rte = self.local_rte(nexthop);
            let change = self.table_update_fast(net, rte);
            self.propagate(ctx, net, change);
        }
        self.flush_all(ctx);
        for ch in 0..self.channels.len() {
            self.start_channel(ctx, ch);
        }
    }

    fn on_data(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, data: &[u8]) {
        let Some(&ch) = self.link_to_channel.get(&link) else {
            return;
        };
        if self.channels[ch].conn_state == ConnState::Down {
            return;
        }
        self.channels[ch].rx.push(data);
        loop {
            match self.channels[ch].rx.next_frame() {
                Ok(Some(frame)) => self.rx_frame(ctx, ch, frame),
                Ok(None) => break,
                Err(e) => {
                    self.logs.push(format!("framing error on channel {ch}: {e}"));
                    self.tx(ctx, ch, &Message::Notification(NotificationMsg::from_error(&e)));
                    self.channel_down(ctx, ch);
                    break;
                }
            }
            if self.channels[ch].conn_state == ConnState::Down {
                break;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let ch = (token / 2) as usize;
        if ch >= self.channels.len() || !self.channels[ch].up() {
            return;
        }
        let hold = self.channels[ch].hold_ns;
        if token % 2 == TK_KEEPALIVE {
            self.tx(ctx, ch, &Message::Keepalive);
            ctx.set_timer(hold / 3, token);
        } else if ctx.now().saturating_sub(self.channels[ch].last_rx) >= hold {
            self.logs.push(format!("hold timer expired on channel {ch}"));
            self.tx(ctx, ch, &Message::Notification(NotificationMsg::new(4, 0)));
            self.channel_down(ctx, ch);
        } else {
            ctx.set_timer(hold / 3, token);
        }
    }

    fn on_link_event(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, up: bool) {
        let Some(&ch) = self.link_to_channel.get(&link) else {
            return;
        };
        if up {
            if self.channels[ch].conn_state == ConnState::Down {
                self.start_channel(ctx, ch);
            }
        } else {
            self.channel_down(ctx, ch);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl xbgp_driver::Daemon for WrenDaemon {
    fn kind(&self) -> xbgp_driver::Dut {
        xbgp_driver::Dut::Wren
    }

    fn loc_rib_len(&self) -> usize {
        self.table_len()
    }

    fn has_best_route(&self, prefix: &Ipv4Prefix) -> bool {
        self.best_route(prefix).is_some()
    }

    fn loc_rib_dump(&self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        WrenDaemon::loc_rib_dump(self)
    }

    fn oracle_loc_rib_dump(&mut self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        WrenDaemon::oracle_loc_rib_dump(self)
    }

    fn metrics_snapshot(&self) -> Snapshot {
        WrenDaemon::metrics_snapshot(self)
    }

    fn take_trace(&mut self) -> Option<TraceDump> {
        WrenDaemon::take_trace(self)
    }

    fn session_established(&self, addr: u32) -> bool {
        WrenDaemon::session_established(self, addr)
    }

    fn counters(&self) -> xbgp_driver::DaemonCounters {
        let st = &self.stats;
        xbgp_driver::DaemonCounters {
            updates_rx: st.updates_rx,
            prefixes_rx: st.prefixes_rx,
            withdrawals_rx: st.withdrawals_rx,
            updates_tx: st.updates_tx,
            prefixes_tx: st.prefixes_tx,
            withdrawals_tx: st.withdrawals_tx,
            sessions_established: st.sessions_established,
            first_update_rx: st.first_update_rx,
            last_route_change: st.last_route_change,
        }
    }
}

/// WREN's native RFC 4271 §9.1 preference, written over the lazy
/// `ea_list` accessors. A free function so the fast-path table update can
/// borrow the table mutably while comparing.
fn rte_better_native(
    a: &Rte,
    b: &Rte,
    default_local_pref: u32,
    igp_metric: &dyn Fn(u32) -> u32,
) -> bool {
    let lp = |r: &Rte| r.eattrs.local_pref().unwrap_or(default_local_pref);
    if lp(a) != lp(b) {
        return lp(a) > lp(b);
    }
    let hops = |r: &Rte| r.eattrs.as_path_hops();
    if hops(a) != hops(b) {
        return hops(a) < hops(b);
    }
    let origin = |r: &Rte| r.eattrs.origin().map(|o| o as u8).unwrap_or(2);
    if origin(a) != origin(b) {
        return origin(a) < origin(b);
    }
    let med = |r: &Rte| r.eattrs.med().unwrap_or(0);
    if med(a) != med(b) {
        return med(a) < med(b);
    }
    let ebgp = |r: &Rte| !r.src_ibgp && r.src != SrcId::Local;
    if ebgp(a) != ebgp(b) {
        return ebgp(a);
    }
    let metric = |r: &Rte| igp_metric(r.eattrs.next_hop().unwrap_or(0));
    if metric(a) != metric(b) {
        return metric(a) < metric(b);
    }
    let orig_id = |r: &Rte| r.eattrs.originator_id().unwrap_or(r.src_addr);
    if orig_id(a) != orig_id(b) {
        return orig_id(a) < orig_id(b);
    }
    a.src_addr < b.src_addr
}
