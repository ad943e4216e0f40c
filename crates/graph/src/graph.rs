//! Schema graph construction (paper §3.2, Algorithm 1).
//!
//! A three-tier directed graph: a virtual root `ν_s` → database nodes →
//! table nodes, plus bidirectional *table relations* between tables of the
//! same database:
//!
//! * **Primary–Foreign**: an explicit foreign key between two tables;
//! * **Foreign–Foreign**: two tables whose foreign keys reference the same
//!   column of a third table (the paper's Example 3);
//! * **Joinable**: two tables share column values (Jaccard overlap above a
//!   threshold, §4.1.5) — detected from populated content by
//!   [`crate::joinable`].

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use dbcopilot_sqlengine::{Collection, Store};

use crate::joinable::{augment_graph_with_joinable, DEFAULT_JACCARD_THRESHOLD};

/// Index of a node in the schema graph. Node `0` is always `ν_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// What a node represents.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// The virtual root `ν_s` denoting the whole collection.
    Root,
    Database,
    /// A table, tagged with its owning database node.
    Table {
        database: NodeId,
    },
}

/// Relation type on an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Root→database or database→table membership.
    Inclusion,
    /// Explicit primary–foreign key relation.
    PrimaryForeign,
    /// Implicit foreign–foreign relation (shared referenced column).
    ForeignForeign,
    /// Content-overlap joinability.
    Joinable,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    name: String,
    kind: NodeKind,
}

/// The heterogeneous directed schema graph `G = ⟨V, E⟩`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemaGraph {
    nodes: Vec<Node>,
    /// Adjacency: outgoing `(target, kind)` pairs per node, in insertion
    /// order (deterministic).
    adj: Vec<Vec<(NodeId, EdgeKind)>>,
    db_by_name: BTreeMap<String, NodeId>,
    /// Keyed by `"{db}\u{1f}{table}"` (string keys keep the graph
    /// JSON-serializable for router persistence).
    table_by_name: BTreeMap<String, NodeId>,
}

/// Composite key for `table_by_name`.
fn table_key(db: &str, table: &str) -> String {
    format!("{db}\u{1f}{table}")
}

/// The root node id.
pub const ROOT: NodeId = NodeId(0);

impl SchemaGraph {
    /// Build the inclusion skeleton plus explicit PF and implicit FF table
    /// relations from a schema collection (Algorithm 1, lines 1–6 and the
    /// FK-derived part of `getJoinableTables`). No content-based joinable
    /// edges: [`SchemaGraph::with_joins`] builds the graph with them.
    pub fn build(collection: &Collection) -> Self {
        let mut g = SchemaGraph {
            nodes: vec![Node { name: "<root>".into(), kind: NodeKind::Root }],
            adj: vec![Vec::new()],
            db_by_name: BTreeMap::new(),
            table_by_name: BTreeMap::new(),
        };
        for db in collection.databases.values() {
            let db_id = g.push_node(db.name.clone(), NodeKind::Database);
            g.db_by_name.insert(db.name.clone(), db_id);
            g.add_edge(ROOT, db_id, EdgeKind::Inclusion);
            for t in &db.tables {
                let t_id = g.push_node(t.name.clone(), NodeKind::Table { database: db_id });
                g.table_by_name.insert(table_key(&db.name, &t.name), t_id);
                g.add_edge(db_id, t_id, EdgeKind::Inclusion);
            }
            // Explicit primary-foreign edges (bidirectional).
            for t in &db.tables {
                let t_id = g.table_by_name[&table_key(&db.name, &t.name)];
                for fk in &t.foreign_keys {
                    if let Some(&r_id) = g.table_by_name.get(&table_key(&db.name, &fk.ref_table)) {
                        g.add_edge_bidi(t_id, r_id, EdgeKind::PrimaryForeign);
                    }
                }
            }
            // Implicit foreign-foreign edges: two tables referencing the same
            // (table, column).
            // BTreeMap: iteration order determines edge-insertion order, which
            // must not vary across processes (walk sampling follows adjacency
            // order; a HashMap here makes training nondeterministic).
            let mut by_target: BTreeMap<(String, String), Vec<NodeId>> = BTreeMap::new();
            for t in &db.tables {
                let t_id = g.table_by_name[&table_key(&db.name, &t.name)];
                for fk in &t.foreign_keys {
                    by_target
                        .entry((
                            fk.ref_table.to_ascii_lowercase(),
                            fk.ref_column.to_ascii_lowercase(),
                        ))
                        .or_default()
                        .push(t_id);
                }
            }
            for (_, referrers) in by_target {
                for i in 0..referrers.len() {
                    for j in (i + 1)..referrers.len() {
                        if referrers[i] != referrers[j] {
                            g.add_edge_bidi(referrers[i], referrers[j], EdgeKind::ForeignForeign);
                        }
                    }
                }
            }
        }
        g
    }

    /// The paper's schema graph: [`SchemaGraph::build`] plus the joinable
    /// relations `store`'s content implies at the paper's Jaccard threshold
    /// (§4.1.5). The routers of the paper's tables route on this graph; each
    /// shard of a sharded tier routes on a [`SchemaGraph::restrict`]ion of
    /// it.
    pub fn with_joins(collection: &Collection, store: &Store) -> Self {
        let mut g = SchemaGraph::build(collection);
        augment_graph_with_joinable(&mut g, store, DEFAULT_JACCARD_THRESHOLD);
        g
    }

    /// The subgraph over the databases whose names `keep` accepts: the
    /// root, those databases, their tables and every edge among them. Node
    /// order and each node's adjacency order are preserved, and every table
    /// relation stays within one database, so restricting a built graph to
    /// some databases yields, byte for byte, the graph built from those
    /// databases alone.
    pub fn restrict(&self, keep: impl Fn(&str) -> bool) -> SchemaGraph {
        let mut new_id = Vec::with_capacity(self.nodes.len());
        let mut next = 0;
        for node in &self.nodes {
            let kept = match node.kind {
                NodeKind::Root => true,
                NodeKind::Database => keep(&node.name),
                NodeKind::Table { database } => keep(self.name(database)),
            };
            new_id.push(kept.then_some(NodeId(next)));
            next += u32::from(kept);
        }
        let remap = |index: &BTreeMap<String, NodeId>| -> BTreeMap<String, NodeId> {
            index
                .iter()
                .filter_map(|(key, id)| new_id[id.0 as usize].map(|id| (key.clone(), id)))
                .collect()
        };
        let mut g = SchemaGraph {
            nodes: Vec::with_capacity(next as usize),
            adj: Vec::with_capacity(next as usize),
            db_by_name: remap(&self.db_by_name),
            table_by_name: remap(&self.table_by_name),
        };
        for (i, node) in self.nodes.iter().enumerate().filter(|&(i, _)| new_id[i].is_some()) {
            let kind = match node.kind {
                NodeKind::Table { database } => {
                    NodeKind::Table { database: new_id[database.0 as usize].expect("kept") }
                }
                ref kind => kind.clone(),
            };
            g.nodes.push(Node { name: node.name.clone(), kind });
            let edges = self.adj[i].iter().filter_map(|&(to, k)| Some((new_id[to.0 as usize]?, k)));
            g.adj.push(edges.collect());
        }
        g
    }

    fn push_node(&mut self, name: String, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { name, kind });
        self.adj.push(Vec::new());
        id
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        if !self.adj[from.0 as usize].iter().any(|(t, _)| *t == to) {
            self.adj[from.0 as usize].push((to, kind));
        }
    }

    fn add_edge_bidi(&mut self, a: NodeId, b: NodeId, kind: EdgeKind) {
        self.add_edge(a, b, kind);
        self.add_edge(b, a, kind);
    }

    /// Add a content-derived joinable edge between two tables of the same
    /// database. No-op if the edge exists or the nodes are unknown.
    pub fn add_joinable_edge(&mut self, db: &str, table_a: &str, table_b: &str) {
        let (Some(&a), Some(&b)) = (
            self.table_by_name.get(&table_key(db, table_a)),
            self.table_by_name.get(&table_key(db, table_b)),
        ) else {
            return;
        };
        self.add_edge_bidi(a, b, EdgeKind::Joinable);
    }

    /// Check the invariants every accessor indexes by, for a graph that did
    /// not come from [`SchemaGraph::build`] (a deserialized one): node 0 is
    /// the root, one adjacency list per node, every edge and id in range,
    /// root edges and database ids lead to databases, table ids to tables,
    /// every table belongs to a database node, and each name index keys
    /// every node of its kind exactly once, by that node's own name.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nodes.len();
        if self.adj.len() != n {
            return Err(format!("{} adjacency lists for {n} nodes", self.adj.len()));
        }
        if !matches!(self.nodes.first(), Some(Node { kind: NodeKind::Root, .. })) {
            return Err("node 0 is not the root".into());
        }
        let is_db = |id: NodeId| {
            matches!(self.nodes.get(id.0 as usize), Some(Node { kind: NodeKind::Database, .. }))
        };
        let is_table = |id: NodeId| {
            matches!(self.nodes.get(id.0 as usize), Some(Node { kind: NodeKind::Table { .. }, .. }))
        };
        for (from, edges) in self.adj.iter().enumerate() {
            if let Some((to, _)) = edges.iter().find(|(to, _)| to.0 as usize >= n) {
                return Err(format!("edge {from} -> {} leaves the {n} nodes", to.0));
            }
        }
        if let Some(to) = self.successors(ROOT).find(|&to| !is_db(to)) {
            return Err(format!("root edge to node {}, which is not a database", to.0));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if let NodeKind::Table { database } = node.kind {
                if !is_db(database) {
                    return Err(format!(
                        "table node {i} belongs to non-database node {}",
                        database.0
                    ));
                }
            }
        }
        if let Some((name, id)) = self.db_by_name.iter().find(|(_, &id)| !is_db(id)) {
            return Err(format!("database {name:?} is node {}, not a database", id.0));
        }
        if let Some((key, id)) = self.table_by_name.iter().find(|(_, &id)| !is_table(id)) {
            return Err(format!("table {key:?} is node {}, not a table", id.0));
        }
        // Keys are unique, so "every key names its own node" plus "as many
        // keys as nodes of the kind" makes each index a bijection.
        if let Some((name, &id)) = self.db_by_name.iter().find(|(name, &id)| self.name(id) != *name)
        {
            return Err(format!(
                "database key {name:?} indexes node {} named {:?}",
                id.0,
                self.name(id)
            ));
        }
        let own_key = |id: NodeId| match self.nodes[id.0 as usize].kind {
            NodeKind::Table { database } => Some(table_key(self.name(database), self.name(id))),
            _ => None,
        };
        if let Some((key, &id)) =
            self.table_by_name.iter().find(|(key, &id)| own_key(id).as_ref() != Some(*key))
        {
            return Err(format!(
                "table key {key:?} indexes node {} keyed {:?}",
                id.0,
                own_key(id).unwrap_or_default()
            ));
        }
        let dbs = self.nodes.iter().filter(|n| matches!(n.kind, NodeKind::Database)).count();
        let tables = self.nodes.iter().filter(|n| matches!(n.kind, NodeKind::Table { .. })).count();
        if self.db_by_name.len() != dbs || self.table_by_name.len() != tables {
            return Err(format!(
                "{} database and {} table keys for {dbs} database and {tables} table nodes",
                self.db_by_name.len(),
                self.table_by_name.len()
            ));
        }
        Ok(())
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_databases(&self) -> usize {
        self.db_by_name.len()
    }

    pub fn num_tables(&self) -> usize {
        self.table_by_name.len()
    }

    pub fn name(&self, id: NodeId) -> &str {
        &self.nodes[id.0 as usize].name
    }

    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.0 as usize].kind
    }

    /// Out-neighbors in insertion order.
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[id.0 as usize].iter().map(|(t, _)| *t)
    }

    /// Out-neighbors with edge kinds.
    fn successors_with_kind(&self, id: NodeId) -> impl Iterator<Item = (NodeId, EdgeKind)> + '_ {
        self.adj[id.0 as usize].iter().copied()
    }

    /// Database node by name.
    pub fn database_node(&self, name: &str) -> Option<NodeId> {
        self.db_by_name.get(name).copied()
    }

    /// Table node by database + table name.
    pub fn table_node(&self, db: &str, table: &str) -> Option<NodeId> {
        self.table_by_name.get(&table_key(db, table)).copied()
    }

    /// All database nodes, deterministic order.
    pub fn database_nodes(&self) -> Vec<NodeId> {
        self.successors(ROOT).collect()
    }

    /// All table nodes of a database, deterministic order.
    pub fn tables_of(&self, db: NodeId) -> Vec<NodeId> {
        debug_assert!(matches!(self.kind(db), NodeKind::Database));
        self.successors(db).filter(|t| matches!(self.kind(*t), NodeKind::Table { .. })).collect()
    }

    /// The owning database of a table node.
    pub fn database_of(&self, table: NodeId) -> Option<NodeId> {
        match self.kind(table) {
            NodeKind::Table { database } => Some(*database),
            _ => None,
        }
    }

    /// Table-relation neighbors (PF/FF/Joinable) of a table, restricted to
    /// its own database.
    pub fn related_tables(&self, table: NodeId) -> Vec<NodeId> {
        let db = self.database_of(table);
        self.successors_with_kind(table)
            .filter(|(_, k)| *k != EdgeKind::Inclusion)
            .map(|(t, _)| t)
            .filter(|t| self.database_of(*t) == db)
            .collect()
    }

    /// The query schema `⟨D, T⟩` the paper routes to.
    ///
    /// Checks the two validity conditions of §3.2: tables belong to the
    /// database, and (for multi-table schemata) the tables are connected
    /// through table relations.
    pub fn is_valid_schema(&self, schema: &QuerySchema) -> bool {
        let Some(db) = self.database_node(&schema.database) else {
            return false;
        };
        let mut ids = Vec::with_capacity(schema.tables.len());
        for t in &schema.tables {
            match self.table_node(&schema.database, t) {
                Some(id) => ids.push(id),
                None => return false,
            }
        }
        if ids.is_empty() {
            return false;
        }
        let _ = db;
        if ids.len() == 1 {
            return true;
        }
        // Connectivity over table relations within the schema's table set.
        let set: BTreeSet<NodeId> = ids.iter().copied().collect();
        let mut seen = BTreeSet::new();
        let mut stack = vec![ids[0]];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            for r in self.related_tables(n) {
                if set.contains(&r) && !seen.contains(&r) {
                    stack.push(r);
                }
            }
        }
        seen.len() == set.len()
    }

    /// Node ids for a schema: database node first, then tables.
    pub fn schema_nodes(&self, schema: &QuerySchema) -> Option<(NodeId, Vec<NodeId>)> {
        let db = self.database_node(&schema.database)?;
        let mut tables = Vec::with_capacity(schema.tables.len());
        for t in &schema.tables {
            tables.push(self.table_node(&schema.database, t)?);
        }
        Some((db, tables))
    }
}

/// A SQL query schema `S = ⟨D, T⟩` (Table 1): the routing target.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuerySchema {
    pub database: String,
    /// Table names, order-insensitive for comparison purposes but kept in
    /// serialization order.
    pub tables: Vec<String>,
}

impl QuerySchema {
    pub fn new(database: impl Into<String>, tables: Vec<String>) -> Self {
        QuerySchema { database: database.into(), tables }
    }

    /// Case-normalized, order-insensitive equality.
    pub fn same_as(&self, other: &QuerySchema) -> bool {
        if !self.database.eq_ignore_ascii_case(&other.database)
            || self.tables.len() != other.tables.len()
        {
            return false;
        }
        let mut a: Vec<String> = self.tables.iter().map(|t| t.to_ascii_lowercase()).collect();
        let mut b: Vec<String> = other.tables.iter().map(|t| t.to_ascii_lowercase()).collect();
        a.sort();
        b.sort();
        a == b
    }

    /// Does this schema cover (⊇) the tables of `other` in the same database?
    pub fn covers(&self, other: &QuerySchema) -> bool {
        if !self.database.eq_ignore_ascii_case(&other.database) {
            return false;
        }
        let mine: BTreeSet<String> = self.tables.iter().map(|t| t.to_ascii_lowercase()).collect();
        other.tables.iter().all(|t| mine.contains(&t.to_ascii_lowercase()))
    }
}

impl std::fmt::Display for QuerySchema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨{}, {{{}}}⟩", self.database, self.tables.join(", "))
    }
}

#[cfg(test)]
pub(crate) mod fixtures {
    use dbcopilot_sqlengine::{Collection, DataType, DatabaseSchema, TableSchema};

    /// concert_singer + world + flight — small multi-database collection
    /// mirroring the paper's examples.
    pub fn collection() -> Collection {
        let mut c = Collection::new();

        let mut concert = DatabaseSchema::new("concert_singer");
        concert.add_table(
            TableSchema::new("singer")
                .column("singer_id", DataType::Int)
                .column("name", DataType::Text)
                .primary(0),
        );
        concert.add_table(
            TableSchema::new("concert")
                .column("concert_id", DataType::Int)
                .column("year", DataType::Int)
                .primary(0),
        );
        concert.add_table(
            TableSchema::new("singer_in_concert")
                .column("singer_id", DataType::Int)
                .column("concert_id", DataType::Int)
                .foreign("singer_id", "singer", "singer_id")
                .foreign("concert_id", "concert", "concert_id"),
        );
        c.add_database(concert);

        let mut world = DatabaseSchema::new("world");
        world.add_table(
            TableSchema::new("country")
                .column("code", DataType::Text)
                .column("name", DataType::Text)
                .column("continent", DataType::Text)
                .primary(0),
        );
        world.add_table(
            TableSchema::new("countrylanguage")
                .column("countrycode", DataType::Text)
                .column("language", DataType::Text)
                .foreign("countrycode", "country", "code"),
        );
        world.add_table(
            TableSchema::new("city")
                .column("id", DataType::Int)
                .column("name", DataType::Text)
                .column("countrycode", DataType::Text)
                .primary(0)
                .foreign("countrycode", "country", "code"),
        );
        c.add_database(world);

        let mut geo = DatabaseSchema::new("geo");
        geo.add_table(TableSchema::new("state").column("state_name", DataType::Text).primary(0));
        geo.add_table(
            TableSchema::new("city")
                .column("city_name", DataType::Text)
                .column("state_name", DataType::Text)
                .foreign("state_name", "state", "state_name"),
        );
        geo.add_table(
            TableSchema::new("river")
                .column("river_name", DataType::Text)
                .column("traverse", DataType::Text)
                .foreign("traverse", "state", "state_name"),
        );
        c.add_database(geo);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::collection;
    use super::*;

    #[test]
    fn build_counts() {
        let g = SchemaGraph::build(&collection());
        assert_eq!(g.num_databases(), 3);
        assert_eq!(g.num_tables(), 9);
        assert_eq!(g.num_nodes(), 1 + 3 + 9);
    }

    #[test]
    fn inclusion_edges() {
        let g = SchemaGraph::build(&collection());
        let dbs = g.database_nodes();
        assert_eq!(dbs.len(), 3);
        let world = g.database_node("world").unwrap();
        let tables = g.tables_of(world);
        assert_eq!(tables.len(), 3);
    }

    #[test]
    fn primary_foreign_edges_are_bidirectional() {
        let g = SchemaGraph::build(&collection());
        let sic = g.table_node("concert_singer", "singer_in_concert").unwrap();
        let singer = g.table_node("concert_singer", "singer").unwrap();
        assert!(g.related_tables(sic).contains(&singer));
        assert!(g.related_tables(singer).contains(&sic));
    }

    #[test]
    fn foreign_foreign_edge_exists() {
        // geo.city and geo.river both reference state.state_name (Example 3).
        let g = SchemaGraph::build(&collection());
        let city = g.table_node("geo", "city").unwrap();
        let river = g.table_node("geo", "river").unwrap();
        assert!(g.related_tables(city).contains(&river));
        let kinds: Vec<EdgeKind> =
            g.successors_with_kind(city).filter(|(t, _)| *t == river).map(|(_, k)| k).collect();
        assert_eq!(kinds, vec![EdgeKind::ForeignForeign]);
    }

    #[test]
    fn same_table_name_in_two_databases_is_distinct() {
        let g = SchemaGraph::build(&collection());
        let wc = g.table_node("world", "city").unwrap();
        let gc = g.table_node("geo", "city").unwrap();
        assert_ne!(wc, gc);
        assert_ne!(g.database_of(wc), g.database_of(gc));
    }

    #[test]
    fn valid_schema_checks() {
        let g = SchemaGraph::build(&collection());
        // connected pair
        assert!(g.is_valid_schema(&QuerySchema::new(
            "world",
            vec!["country".into(), "countrylanguage".into()]
        )));
        // single table always fine
        assert!(g.is_valid_schema(&QuerySchema::new("world", vec!["city".into()])));
        // FF-connected pair without the hub table
        assert!(g.is_valid_schema(&QuerySchema::new("geo", vec!["city".into(), "river".into()])));
        // disconnected pair
        assert!(!g.is_valid_schema(&QuerySchema::new(
            "concert_singer",
            vec!["singer".into(), "concert".into()]
        )));
        // wrong database
        assert!(!g.is_valid_schema(&QuerySchema::new("world", vec!["singer".into()])));
        // unknown database
        assert!(!g.is_valid_schema(&QuerySchema::new("nope", vec!["x".into()])));
        // empty tables
        assert!(!g.is_valid_schema(&QuerySchema::new("world", vec![])));
    }

    #[test]
    fn joinable_edges_addable() {
        let mut g = SchemaGraph::build(&collection());
        let before = g.related_tables(g.table_node("concert_singer", "singer").unwrap()).len();
        g.add_joinable_edge("concert_singer", "singer", "concert");
        let singer = g.table_node("concert_singer", "singer").unwrap();
        assert_eq!(g.related_tables(singer).len(), before + 1);
        // now singer–concert is a valid pair
        assert!(g.is_valid_schema(&QuerySchema::new(
            "concert_singer",
            vec!["singer".into(), "concert".into()]
        )));
    }

    #[test]
    fn query_schema_equality_ignores_order_and_case() {
        let a = QuerySchema::new("World", vec!["Country".into(), "city".into()]);
        let b = QuerySchema::new("world", vec!["city".into(), "country".into()]);
        assert!(a.same_as(&b));
        assert!(a.covers(&QuerySchema::new("world", vec!["city".into()])));
        assert!(!QuerySchema::new("world", vec!["city".into()]).covers(&a));
    }
}
