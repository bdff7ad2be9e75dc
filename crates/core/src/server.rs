//! Multi-database servers.
//!
//! The paper's model (§2): "For simplicity, we will assume that there is a
//! single database in the system. When the system maintains multiple
//! databases, a separate instance of the protocol runs for each database."
//! [`Server`] is that multiplexer: a node hosting any number of named
//! databases, each an independent [`Replica`] with its own DBVV, log
//! vector, and auxiliary state. Anti-entropy between two servers runs the
//! protocol once per database they share.

use std::collections::BTreeMap;

use epidb_common::{Costs, Error, ItemId, NodeId, Result, RouteTarget};
use epidb_store::{ItemValue, UpdateOp};

use crate::engine::{
    unexpected, DbTransport, Engine, ProtocolRequest, ProtocolResponse, SyncMode, Transport,
};
use crate::policy::ConflictPolicy;
use crate::propagation::PullOutcome;
use crate::replica::Replica;
use crate::retry::RetryPolicy;

/// A server hosting one protocol instance per named database.
#[derive(Clone, Debug)]
pub struct Server {
    id: NodeId,
    n_nodes: usize,
    databases: BTreeMap<String, Replica>,
    /// Costs of server-level (non-database) exchanges: the database-list
    /// prelude of a server sync session.
    meta_costs: Costs,
}

impl Server {
    /// A server with no databases yet, in a system of `n_nodes` servers.
    pub fn new(id: NodeId, n_nodes: usize) -> Server {
        assert!(id.index() < n_nodes, "server id out of range");
        Server { id, n_nodes, databases: BTreeMap::new(), meta_costs: Costs::ZERO }
    }

    /// This server's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Create a database replica on this server. Every server replicating
    /// the database must create it with the same `n_items` and policy.
    pub fn create_database(
        &mut self,
        name: impl Into<String>,
        n_items: usize,
        policy: ConflictPolicy,
    ) -> Result<()> {
        let name = name.into();
        if self.databases.contains_key(&name) {
            return Err(Error::DatabaseExists(name));
        }
        self.databases.insert(name, Replica::with_policy(self.id, self.n_nodes, n_items, policy));
        Ok(())
    }

    /// Drop a database replica from this server.
    pub fn drop_database(&mut self, name: &str) -> Result<()> {
        self.databases
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::UnknownDatabase(name.to_string()))
    }

    /// Names of the databases hosted here, sorted.
    pub fn database_names(&self) -> Vec<&str> {
        self.databases.keys().map(String::as_str).collect()
    }

    /// Shared access to one database's replica.
    pub fn database(&self, name: &str) -> Result<&Replica> {
        self.databases.get(name).ok_or_else(|| Error::UnknownDatabase(name.to_string()))
    }

    /// Mutable access to one database's replica.
    pub fn database_mut(&mut self, name: &str) -> Result<&mut Replica> {
        self.databases.get_mut(name).ok_or_else(|| Error::UnknownDatabase(name.to_string()))
    }

    /// Apply a user update in one database.
    pub fn update(&mut self, db: &str, item: ItemId, op: UpdateOp) -> Result<()> {
        self.database_mut(db)?.update(item, op)
    }

    /// Read the user-visible value of an item in one database.
    pub fn read(&self, db: &str, item: ItemId) -> Result<&ItemValue> {
        self.database(db)?.read(item)
    }

    /// Total protocol costs across all hosted databases, plus the
    /// server-level exchanges (the database-list prelude).
    pub fn costs(&self) -> Costs {
        self.databases.values().map(Replica::costs).fold(self.meta_costs, |a, b| a + b)
    }

    /// Check invariants of every hosted database.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        for (name, replica) in &self.databases {
            replica.check_invariants().map_err(|e| format!("database {name:?}: {e}"))?;
        }
        Ok(())
    }

    /// Serialize the whole server (every hosted database) to bytes.
    pub fn to_snapshot(&self) -> Vec<u8> {
        use crate::codec::Writer;
        let mut w = Writer::new();
        w.bytes(b"EPDBSRV");
        w.u16(self.id.0);
        w.u16(self.n_nodes as u16);
        w.u32(self.databases.len() as u32);
        for (name, replica) in &self.databases {
            w.bytes(name.as_bytes());
            w.bytes(&replica.to_snapshot());
        }
        w.into_bytes()
    }

    /// Recover a server (all its databases) from a snapshot.
    pub fn from_snapshot(buf: &[u8]) -> Result<Server> {
        use crate::codec::Reader;
        let mut r = Reader::new(buf);
        if r.bytes()? != b"EPDBSRV" {
            return Err(Error::Network("server snapshot: bad magic".into()));
        }
        let id = NodeId(r.u16()?);
        let n_nodes = r.u16()? as usize;
        if id.index() >= n_nodes {
            return Err(Error::UnknownNode(id));
        }
        let count = r.u32()? as usize;
        let mut server = Server::new(id, n_nodes);
        for _ in 0..count {
            let name = String::from_utf8(r.bytes()?.to_vec())
                .map_err(|e| Error::Network(format!("server snapshot: bad name: {e}")))?;
            let replica = Replica::from_snapshot(r.bytes()?)?;
            if replica.id() != id || replica.n_nodes() != n_nodes {
                return Err(Error::Network("server snapshot: inconsistent replica".into()));
            }
            server.databases.insert(name, replica);
        }
        r.finish()?;
        Ok(server)
    }
}

/// What a server-level anti-entropy session did, per database.
#[derive(Debug, Default)]
pub struct ServerPullOutcome {
    /// `(database, outcome)` for every database both servers host.
    pub per_database: Vec<(String, PullOutcome)>,
    /// Databases the source hosts but the recipient does not (candidates
    /// for database-level replication, outside the protocol's scope).
    pub missing_at_recipient: Vec<String>,
}

impl Engine {
    /// Execute one request against a multi-database server: answer the
    /// database-list prelude here, route [`ProtocolRequest::Db`] envelopes
    /// to the named database's replica via [`Engine::handle`].
    pub fn handle_server(server: &mut Server, req: ProtocolRequest) -> Result<ProtocolResponse> {
        match req {
            ProtocolRequest::ListDatabases { .. } => {
                let resp = ProtocolResponse::Databases(server.databases.keys().cloned().collect());
                server.meta_costs.charge_message(resp.control_bytes(), resp.payload_bytes());
                Ok(resp)
            }
            ProtocolRequest::Db { name, req } => {
                // Routing refusals are typed: a `Db` envelope naming a
                // database this server doesn't host gets the same
                // `NotServedHere` treatment as an unowned shard, so
                // callers have one redirect/abort story for both. A
                // server has no placement map for databases, hence the
                // empty owners list.
                let replica =
                    server.databases.get_mut(&name).ok_or_else(|| Error::NotServedHere {
                        target: RouteTarget::Database(name.clone()),
                        owners: vec![],
                    })?;
                let resp = Engine::handle(replica, *req)?;
                Ok(ProtocolResponse::Db { name, resp: Box::new(resp) })
            }
            other => Err(Error::Network(format!(
                "server dispatch needs database routing, got {} request",
                other.kind()
            ))),
        }
    }

    /// Drive one anti-entropy session between two servers over any
    /// transport: ask the source which databases it hosts, then run the
    /// protocol once per shared database (a separate instance per
    /// database, §2) in the chosen shipping mode. No retries; see
    /// [`Engine::pull_server_with`].
    pub fn pull_server<T: Transport>(
        recipient: &mut Server,
        transport: &mut T,
        mode: SyncMode,
    ) -> Result<ServerPullOutcome> {
        Self::pull_server_with(recipient, transport, mode, &RetryPolicy::none())
    }

    /// As [`Engine::pull_server`], with `policy` applied independently to
    /// the database-list prelude (retried here, charged to the server's
    /// meta costs) and to each per-database round (retried by the replica
    /// drivers, charged to that database's replica — with the delta mode's
    /// degradation ladder intact).
    pub fn pull_server_with<T: Transport>(
        recipient: &mut Server,
        transport: &mut T,
        mode: SyncMode,
        policy: &RetryPolicy,
    ) -> Result<ServerPullOutcome> {
        let start = policy.round_start();
        let mut failed = 0u32;
        let names = loop {
            let list = ProtocolRequest::ListDatabases { from: recipient.id };
            recipient.meta_costs.charge_message(list.control_bytes(), list.payload_bytes());
            match transport.exchange(list) {
                Ok(ProtocolResponse::Databases(names)) => break names,
                Ok(other) => return Err(unexpected("list-databases", &other)),
                Err(e) => {
                    if matches!(e, Error::CorruptFrame(_)) {
                        recipient.meta_costs.corrupt_frames_dropped += 1;
                    }
                    failed += 1;
                    let Some(pause) = policy.pause_before_retry(failed, start, &e) else {
                        return Err(e);
                    };
                    recipient.meta_costs.retries += 1;
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
            }
        };

        let mut outcome = ServerPullOutcome::default();
        for name in names {
            let Some(replica) = recipient.databases.get_mut(&name) else {
                outcome.missing_at_recipient.push(name);
                continue;
            };
            let mut routed = DbTransport::new(transport, &name);
            let o = match mode {
                SyncMode::WholeItem => Engine::pull_with(replica, &mut routed, policy)?,
                SyncMode::Delta => Engine::pull_delta_with(replica, &mut routed, policy)?,
            };
            outcome.per_database.push((name, o));
        }
        Ok(outcome)
    }
}

/// The in-process transport between two multi-database servers: an
/// exchange is a direct call to [`Engine::handle_server`].
pub struct LocalServerTransport<'a> {
    source: &'a mut Server,
}

impl<'a> LocalServerTransport<'a> {
    /// Wrap the source server of an in-process exchange.
    pub fn new(source: &'a mut Server) -> LocalServerTransport<'a> {
        LocalServerTransport { source }
    }
}

impl Transport for LocalServerTransport<'_> {
    fn peer(&self) -> NodeId {
        self.source.id
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        Engine::handle_server(self.source, req)
    }
}

/// One anti-entropy session between two servers: runs the protocol once
/// for every database they share (a separate instance per database, §2),
/// copying whole items.
pub fn pull_server(recipient: &mut Server, source: &mut Server) -> Result<ServerPullOutcome> {
    Engine::pull_server(recipient, &mut LocalServerTransport::new(source), SyncMode::WholeItem)
}

/// As [`pull_server`], but shipping update records (delta mode) for every
/// shared database. Databases whose replicas have no op cache fall back to
/// whole values per item, exactly as replica-level delta pulls do.
pub fn pull_server_delta(recipient: &mut Server, source: &mut Server) -> Result<ServerPullOutcome> {
    Engine::pull_server(recipient, &mut LocalServerTransport::new(source), SyncMode::Delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidb_vv::VvOrd;

    fn two_servers() -> (Server, Server) {
        let mut a = Server::new(NodeId(0), 2);
        let mut b = Server::new(NodeId(1), 2);
        for s in [&mut a, &mut b] {
            s.create_database("mail", 100, ConflictPolicy::Report).unwrap();
            s.create_database("docs", 50, ConflictPolicy::Report).unwrap();
        }
        (a, b)
    }

    #[test]
    fn databases_are_independent_protocol_instances() {
        let (mut a, mut b) = two_servers();
        a.update("mail", ItemId(1), UpdateOp::set(&b"inbox"[..])).unwrap();
        a.update("docs", ItemId(2), UpdateOp::set(&b"spec"[..])).unwrap();

        // Each database has its own DBVV.
        assert_eq!(a.database("mail").unwrap().dbvv().total(), 1);
        assert_eq!(a.database("docs").unwrap().dbvv().total(), 1);

        let out = pull_server(&mut b, &mut a).unwrap();
        assert_eq!(out.per_database.len(), 2);
        assert!(out.missing_at_recipient.is_empty());
        assert_eq!(b.read("mail", ItemId(1)).unwrap().as_bytes(), b"inbox");
        assert_eq!(b.read("docs", ItemId(2)).unwrap().as_bytes(), b"spec");
        b.check_invariants().unwrap();
    }

    #[test]
    fn identical_databases_detected_per_instance() {
        let (mut a, mut b) = two_servers();
        a.update("mail", ItemId(0), UpdateOp::set(&b"x"[..])).unwrap();
        pull_server(&mut b, &mut a).unwrap();
        let out = pull_server(&mut b, &mut a).unwrap();
        for (_, o) in &out.per_database {
            assert!(matches!(o, PullOutcome::UpToDate));
        }
        assert_eq!(
            a.database("mail").unwrap().dbvv().compare(b.database("mail").unwrap().dbvv()),
            VvOrd::Equal
        );
    }

    #[test]
    fn unshared_databases_are_reported_not_synced() {
        let (mut a, mut b) = two_servers();
        a.create_database("private", 10, ConflictPolicy::Report).unwrap();
        a.update("private", ItemId(0), UpdateOp::set(&b"secret"[..])).unwrap();
        let out = pull_server(&mut b, &mut a).unwrap();
        assert_eq!(out.missing_at_recipient, vec!["private".to_string()]);
        assert!(b.database("private").is_err());
    }

    #[test]
    fn duplicate_and_unknown_database_errors() {
        let mut s = Server::new(NodeId(0), 2);
        s.create_database("db", 10, ConflictPolicy::Report).unwrap();
        assert!(matches!(
            s.create_database("db", 10, ConflictPolicy::Report),
            Err(Error::DatabaseExists(_))
        ));
        assert!(matches!(s.read("nope", ItemId(0)), Err(Error::UnknownDatabase(_))));
        assert!(s.drop_database("db").is_ok());
        assert!(matches!(s.drop_database("db"), Err(Error::UnknownDatabase(_))));
    }

    #[test]
    fn server_snapshot_roundtrips_all_databases() {
        let (mut a, mut b) = two_servers();
        a.update("mail", ItemId(1), UpdateOp::set(&b"msg"[..])).unwrap();
        a.update("docs", ItemId(0), UpdateOp::set(&b"doc"[..])).unwrap();
        pull_server(&mut b, &mut a).unwrap();

        let buf = b.to_snapshot();
        let restored = Server::from_snapshot(&buf).unwrap();
        assert_eq!(restored.id(), b.id());
        assert_eq!(restored.database_names(), b.database_names());
        assert_eq!(restored.read("mail", ItemId(1)).unwrap().as_bytes(), b"msg");
        assert_eq!(restored.read("docs", ItemId(0)).unwrap().as_bytes(), b"doc");
        restored.check_invariants().unwrap();

        // The restored server keeps replicating.
        let mut restored = restored;
        a.update("mail", ItemId(2), UpdateOp::set(&b"post-crash"[..])).unwrap();
        pull_server(&mut restored, &mut a).unwrap();
        assert_eq!(restored.read("mail", ItemId(2)).unwrap().as_bytes(), b"post-crash");
    }

    #[test]
    fn corrupt_server_snapshot_rejected() {
        let (a, _) = two_servers();
        let buf = a.to_snapshot();
        let mut bad = buf.clone();
        bad[4] = b'X';
        assert!(Server::from_snapshot(&bad).is_err());
        assert!(Server::from_snapshot(&buf[..buf.len() - 3]).is_err());
    }

    #[test]
    fn server_sync_in_delta_mode_ships_ops() {
        let (mut a, mut b) = two_servers();
        for s in [&mut a, &mut b] {
            s.database_mut("mail").unwrap().enable_delta(1 << 20);
            s.database_mut("docs").unwrap().enable_delta(1 << 20);
        }
        a.update("mail", ItemId(0), UpdateOp::set(vec![7u8; 4096])).unwrap();
        pull_server_delta(&mut b, &mut a).unwrap();

        // A small edit on the big item plus a fresh small item: the second
        // delta session must ship operations, not the 4 KiB value again.
        a.update("mail", ItemId(0), UpdateOp::append(&b"tail"[..])).unwrap();
        a.update("docs", ItemId(1), UpdateOp::set(&b"doc"[..])).unwrap();
        let before = a.costs();
        let out = pull_server_delta(&mut b, &mut a).unwrap();
        assert_eq!(out.per_database.len(), 2);
        let d = a.costs() - before;
        assert!(d.bytes_sent - d.control_bytes < 100, "delta session re-shipped whole values");
        assert_eq!(b.read("mail", ItemId(0)).unwrap().len(), 4096 + 4);
        assert_eq!(b.read("docs", ItemId(1)).unwrap().as_bytes(), b"doc");
        b.check_invariants().unwrap();

        // A third session detects "you are current" per database from the
        // DBVVs alone.
        let out = pull_server_delta(&mut b, &mut a).unwrap();
        for (_, o) in &out.per_database {
            assert!(matches!(o, PullOutcome::UpToDate));
        }
    }

    #[test]
    fn routed_request_to_unknown_database_errors() {
        let (mut a, _) = two_servers();
        let req = ProtocolRequest::Db {
            name: "nope".into(),
            req: Box::new(ProtocolRequest::ListDatabases { from: NodeId(1) }),
        };
        match Engine::handle_server(&mut a, req) {
            Err(e @ Error::NotServedHere { .. }) => {
                // Same refusal type as an unowned shard, same
                // classification: redirect, don't blindly retry.
                assert!(!e.is_retryable());
            }
            other => panic!("expected a typed routing refusal, got {other:?}"),
        }
    }

    #[test]
    fn server_costs_aggregate_databases() {
        let (mut a, mut b) = two_servers();
        a.update("mail", ItemId(0), UpdateOp::set(&b"x"[..])).unwrap();
        a.update("docs", ItemId(0), UpdateOp::set(&b"y"[..])).unwrap();
        pull_server(&mut b, &mut a).unwrap();
        assert!(a.costs().messages_sent >= 2); // one response per database
        assert_eq!(b.costs().items_copied, 2);
        assert_eq!(a.database_names(), vec!["docs", "mail"]);
    }
}
