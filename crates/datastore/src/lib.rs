//! A provenance-tracked document store — the workspace's MongoDB
//! substitute.
//!
//! "To handle the big amounts of data (measured samples, simulated
//! samples, trained networks, ...) a MongoDB database is used to store
//! the data of all tools in the presented toolflow. In addition to the
//! actual data, all objects stored in the database also store metadata
//! that make it possible to trace the basis on which the respective data
//! was generated" (paper §III.A.1).
//!
//! [`Store`] keeps JSON documents in named collections. Every document
//! carries [`Metadata`]: the tool that created it, free-form parameters,
//! a logical timestamp, and *parent* document ids — enough to answer
//! "which measurements have been used to train the simulators and which
//! data has been used to train a specific network". Stores are in-memory
//! by default and can be persisted to / loaded from a directory of JSON
//! files.
//!
//! A stored payload is immutable and shared: [`Document::payload`] is an
//! `Arc`, so reads ([`Store::get`], [`Store::collection`],
//! [`Store::query`], [`Store::latest`]) hand out a reference-counted
//! pointer to the stored tree instead of a copy of it, and
//! [`Store::get_payload`] deserializes straight from that tree.
//!
//! # Durability
//!
//! Persistence is crash-safe: every document is written to a temporary
//! file and atomically renamed into place, wrapped in an envelope
//! carrying a CRC-32 checksum of the document JSON
//! (`{"crc32": N, "doc": {...}}`). On load, documents whose checksum
//! does not verify — torn writes, bit rot — are moved into a
//! `quarantine/` subdirectory and reported via [`LoadReport`] instead of
//! aborting the load. Files written before checksumming existed (a bare
//! document object) are still accepted.
//!
//! # Example
//!
//! ```
//! use datastore::{Metadata, Store};
//!
//! # fn main() -> Result<(), datastore::StoreError> {
//! let store = Store::in_memory();
//! let measurement = store.insert(
//!     "measurements",
//!     Metadata::created_by("mms-prototype"),
//!     &serde_json::json!({"mixture": "N2/O2"}),
//! )?;
//! let simulator = store.insert(
//!     "simulators",
//!     Metadata::created_by("tool-2").with_parent(measurement),
//!     &serde_json::json!({"peak_width": 0.45}),
//! )?;
//! let lineage = store.lineage(simulator)?;
//! assert_eq!(lineage, vec![simulator, measurement]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

/// A document identifier, unique within one [`Store`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct DocumentId(u64);

impl fmt::Display for DocumentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc-{}", self.0)
    }
}

/// Error type for store operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The requested document does not exist.
    NotFound(DocumentId),
    /// The requested collection does not exist.
    UnknownCollection(String),
    /// A payload failed to (de)serialize.
    Serde(String),
    /// Filesystem persistence failed.
    Io(std::io::Error),
    /// A referenced parent id does not exist in the store.
    DanglingParent(DocumentId),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(id) => write!(f, "document {id} not found"),
            StoreError::UnknownCollection(name) => write!(f, "unknown collection {name}"),
            StoreError::Serde(msg) => write!(f, "serialization error: {msg}"),
            StoreError::Io(err) => write!(f, "io error: {err}"),
            StoreError::DanglingParent(id) => write!(f, "parent {id} does not exist"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// Provenance metadata attached to every document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metadata {
    /// The tool that created this document (e.g. `"tool-2"`).
    pub created_by: String,
    /// Free-form key/value parameters (e.g. `samples_per_mixture=25`).
    pub params: BTreeMap<String, String>,
    /// Logical creation time (monotonic per store).
    pub sequence: u64,
    /// Documents this one was derived from.
    pub parents: Vec<DocumentId>,
}

impl Metadata {
    /// Metadata naming the creating tool.
    pub fn created_by(tool: impl Into<String>) -> Self {
        Self {
            created_by: tool.into(),
            params: BTreeMap::new(),
            sequence: 0,
            parents: Vec::new(),
        }
    }

    /// Adds a parameter (builder style).
    #[must_use]
    pub fn with_param(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.params.insert(key.into(), value.to_string());
        self
    }

    /// Adds a parent document (builder style).
    #[must_use]
    pub fn with_parent(mut self, parent: DocumentId) -> Self {
        self.parents.push(parent);
        self
    }

    /// Adds several parents (builder style).
    #[must_use]
    pub fn with_parents(mut self, parents: impl IntoIterator<Item = DocumentId>) -> Self {
        self.parents.extend(parents);
        self
    }
}

/// A stored document: metadata plus a JSON payload.
///
/// Cloning a document is cheap: the payload is shared, never copied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// The document id.
    pub id: DocumentId,
    /// The collection the document lives in.
    pub collection: String,
    /// Provenance metadata.
    pub metadata: Metadata,
    /// The JSON payload, shared immutably by the store and every reader.
    pub payload: Arc<serde_json::Value>,
}

/// The document store. Cheap to share: all methods take `&self` and the
/// interior is guarded by an `RwLock`.
#[derive(Debug)]
pub struct Store {
    documents: RwLock<BTreeMap<DocumentId, Document>>,
    next_id: AtomicU64,
}

impl Store {
    /// An empty in-memory store.
    pub fn in_memory() -> Self {
        Self {
            documents: RwLock::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Inserts a serializable payload into `collection`, assigning the id
    /// and logical sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Serde`] if the payload fails to serialize,
    /// or [`StoreError::DanglingParent`] if a parent id is unknown.
    pub fn insert<T: Serialize>(
        &self,
        collection: &str,
        metadata: Metadata,
        payload: &T,
    ) -> Result<DocumentId, StoreError> {
        let value = serde_json::to_value(payload).map_err(|e| StoreError::Serde(e.to_string()))?;
        let mut documents = self.documents.write();
        for parent in &metadata.parents {
            if !documents.contains_key(parent) {
                return Err(StoreError::DanglingParent(*parent));
            }
        }
        let id = DocumentId(self.next_id.fetch_add(1, Ordering::SeqCst));
        let mut metadata = metadata;
        metadata.sequence = id.0;
        documents.insert(
            id,
            Document {
                id,
                collection: collection.to_string(),
                metadata,
                payload: Arc::new(value),
            },
        );
        obs::counter_add("store.inserts", 1);
        Ok(id)
    }

    /// Fetches a document by id. The returned payload is the stored one,
    /// shared.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotFound`] if the id is unknown.
    pub fn get(&self, id: DocumentId) -> Result<Document, StoreError> {
        self.documents
            .read()
            .get(&id)
            .cloned()
            .ok_or(StoreError::NotFound(id))
    }

    /// Deserializes a document's payload into `T`, reading the stored
    /// tree in place.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotFound`] or [`StoreError::Serde`].
    pub fn get_payload<T: DeserializeOwned>(&self, id: DocumentId) -> Result<T, StoreError> {
        let doc = self.get(id)?;
        T::from_value(&doc.payload).map_err(|e| StoreError::Serde(e.to_string()))
    }

    /// All documents of a collection, in insertion order.
    pub fn collection(&self, name: &str) -> Vec<Document> {
        self.documents
            .read()
            .values()
            .filter(|d| d.collection == name)
            .cloned()
            .collect()
    }

    /// Collection names present in the store.
    pub fn collections(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .documents
            .read()
            .values()
            .map(|d| d.collection.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Documents of a collection whose metadata parameter `key` equals
    /// `value`.
    pub fn query(&self, collection: &str, key: &str, value: &str) -> Vec<Document> {
        self.collection(collection)
            .into_iter()
            .filter(|d| d.metadata.params.get(key).map(String::as_str) == Some(value))
            .collect()
    }

    /// The newest (highest logical sequence) document of a collection
    /// whose metadata parameter `key` equals `value`, or `None` if no
    /// document matches.
    pub fn latest(&self, collection: &str, key: &str, value: &str) -> Option<Document> {
        self.documents
            .read()
            .values()
            .filter(|d| d.collection == collection)
            .filter(|d| d.metadata.params.get(key).map(String::as_str) == Some(value))
            .max_by_key(|d| d.metadata.sequence)
            .cloned()
    }

    /// Total number of documents.
    pub fn len(&self) -> usize {
        self.documents.read().len()
    }

    /// Returns `true` if the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.documents.read().is_empty()
    }

    /// The full provenance chain of a document: itself, then its parents
    /// in breadth-first order (each id once).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotFound`] if the starting id is unknown.
    pub fn lineage(&self, id: DocumentId) -> Result<Vec<DocumentId>, StoreError> {
        let documents = self.documents.read();
        if !documents.contains_key(&id) {
            return Err(StoreError::NotFound(id));
        }
        let mut seen = vec![id];
        let mut queue = std::collections::VecDeque::from([id]);
        while let Some(current) = queue.pop_front() {
            if let Some(doc) = documents.get(&current) {
                for &parent in &doc.metadata.parents {
                    if !seen.contains(&parent) {
                        seen.push(parent);
                        queue.push_back(parent);
                    }
                }
            }
        }
        Ok(seen)
    }

    /// Documents that list `id` as a parent (direct descendants).
    pub fn children(&self, id: DocumentId) -> Vec<DocumentId> {
        self.documents
            .read()
            .values()
            .filter(|d| d.metadata.parents.contains(&id))
            .map(|d| d.id)
            .collect()
    }

    /// Persists the store as one checksummed JSON file per document
    /// under `dir` (created if missing).
    ///
    /// Each file holds an envelope `{"crc32": N, "doc": {...}}` where `N`
    /// is the CRC-32 (IEEE) of the canonical document JSON, and is
    /// written via a temporary file + atomic rename so a crash mid-save
    /// never leaves a half-written document at its final path.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] or [`StoreError::Serde`].
    pub fn save_to_dir(&self, dir: &Path) -> Result<(), StoreError> {
        self.save_internal(dir, None)
    }

    /// [`Store::save_to_dir`] with torn-write fault injection: documents
    /// scheduled by `plan` are written *truncated, directly to their
    /// final path* — simulating a crash between write and rename on a
    /// non-atomic implementation. Testing aid for recovery drills.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] or [`StoreError::Serde`].
    pub fn save_to_dir_with_faults(
        &self,
        dir: &Path,
        plan: &faultsim::FaultPlan,
    ) -> Result<(), StoreError> {
        self.save_internal(dir, Some(plan))
    }

    fn save_internal(
        &self,
        dir: &Path,
        plan: Option<&faultsim::FaultPlan>,
    ) -> Result<(), StoreError> {
        let _span = obs::span!("store.save");
        std::fs::create_dir_all(dir)?;
        for doc in self.documents.read().values() {
            let doc_json =
                serde_json::to_string(doc).map_err(|e| StoreError::Serde(e.to_string()))?;
            let envelope = format!(
                "{{\"crc32\":{},\"doc\":{}}}",
                crc32(doc_json.as_bytes()),
                doc_json
            );
            let path = dir.join(format!("{}.json", doc.id.0));
            if plan.is_some_and(|p| p.tear_write()) {
                // Torn write: half the envelope lands at the final path.
                let torn = &envelope.as_bytes()[..envelope.len() / 2];
                std::fs::write(&path, torn)?;
            } else {
                let tmp = dir.join(format!("{}.json.tmp", doc.id.0));
                std::fs::write(&tmp, &envelope)?;
                std::fs::rename(&tmp, &path)?;
            }
        }
        Ok(())
    }

    /// Loads a store previously written by [`Store::save_to_dir`],
    /// discarding the corruption report.
    ///
    /// Corrupt documents are quarantined, not fatal — use
    /// [`Store::load_from_dir_report`] to see what was set aside.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory cannot be read.
    pub fn load_from_dir(dir: &Path) -> Result<Self, StoreError> {
        Ok(Self::load_from_dir_report(dir)?.store)
    }

    /// Loads a store from `dir`, verifying every document's CRC-32.
    ///
    /// Files that fail to parse or whose checksum does not match are
    /// moved to `dir/quarantine/` and listed in the returned
    /// [`LoadReport`]; the remaining documents load normally. Bare
    /// document files from before checksumming (no envelope) are
    /// accepted as-is.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] only if the directory itself cannot be
    /// read or a quarantine move fails — per-document corruption is
    /// reported, not raised.
    pub fn load_from_dir_report(dir: &Path) -> Result<LoadReport, StoreError> {
        let _span = obs::span!("store.load");
        let store = Self::in_memory();
        let mut max_id = 0u64;
        let mut docs = BTreeMap::new();
        let mut quarantined = Vec::new();
        let mut entries: Vec<_> =
            std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?;
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            if path.extension().map(|e| e != "json").unwrap_or(true) {
                continue;
            }
            let file = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let json = match std::fs::read_to_string(&path) {
                Ok(json) => json,
                Err(err) => {
                    quarantined.push(quarantine(dir, &path, file, format!("unreadable: {err}"))?);
                    continue;
                }
            };
            match verify_envelope(&json) {
                Ok(doc) => {
                    max_id = max_id.max(doc.id.0);
                    docs.insert(doc.id, doc);
                }
                Err(reason) => {
                    quarantined.push(quarantine(dir, &path, file, reason)?);
                }
            }
        }
        let loaded = docs.len();
        *store.documents.write() = docs;
        store.next_id.store(max_id + 1, Ordering::SeqCst);
        Ok(LoadReport {
            store,
            loaded,
            quarantined,
        })
    }
}

/// Outcome of [`Store::load_from_dir_report`].
#[derive(Debug)]
pub struct LoadReport {
    /// The store holding every document that verified.
    pub store: Store,
    /// Number of documents loaded successfully.
    pub loaded: usize,
    /// Files that failed verification, now under `dir/quarantine/`.
    pub quarantined: Vec<QuarantinedFile>,
}

/// One file set aside by corruption detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedFile {
    /// File name within the store directory.
    pub file: String,
    /// Why verification failed.
    pub reason: String,
}

/// Parses a persisted file: a `{"crc32": N, "doc": {...}}` envelope
/// (checksum verified), or a bare pre-checksum document.
fn verify_envelope(json: &str) -> Result<Document, String> {
    let value: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let mut obj = match value {
        serde_json::Value::Object(obj) if obj.contains_key("crc32") && obj.contains_key("doc") => {
            obj
        }
        // Legacy layout: the file is the document itself.
        legacy => {
            return serde_json::from_value(legacy)
                .map_err(|e| format!("not an envelope and not a document: {e}"))
        }
    };
    let stored = obj
        .get("crc32")
        .and_then(serde_json::Value::as_u64)
        .ok_or_else(|| "crc32 field is not an integer".to_string())?;
    let doc_value = obj.remove("doc").unwrap_or_default();
    // Checksums cover the canonical (compact) document JSON; re-serializing
    // the parsed value reproduces it exactly.
    let doc_json =
        serde_json::to_string(&doc_value).map_err(|e| format!("re-serialize failed: {e}"))?;
    let actual = u64::from(crc32(doc_json.as_bytes()));
    if actual != stored {
        return Err(format!("crc32 mismatch: stored {stored}, computed {actual}"));
    }
    serde_json::from_value(doc_value).map_err(|e| format!("checksum ok but not a document: {e}"))
}

/// Moves a corrupt file into `dir/quarantine/`, keeping its name.
fn quarantine(
    dir: &Path,
    path: &Path,
    file: String,
    reason: String,
) -> Result<QuarantinedFile, StoreError> {
    let qdir = dir.join("quarantine");
    std::fs::create_dir_all(&qdir)?;
    std::fs::rename(path, qdir.join(&file))?;
    Ok(QuarantinedFile { file, reason })
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the same
/// checksum gzip and PNG use. Bitwise implementation; document files are
/// small enough that a lookup table buys nothing.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

impl Default for Store {
    fn default() -> Self {
        Self::in_memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(v: i64) -> serde_json::Value {
        serde_json::json!({ "value": v })
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let store = Store::in_memory();
        let id = store
            .insert("measurements", Metadata::created_by("test"), &payload(7))
            .unwrap();
        let doc = store.get(id).unwrap();
        assert_eq!(doc.collection, "measurements");
        assert_eq!(doc.payload["value"], 7);
        let typed: serde_json::Value = store.get_payload(id).unwrap();
        assert_eq!(typed["value"], 7);
    }

    #[test]
    fn missing_document_is_not_found() {
        let store = Store::in_memory();
        assert!(matches!(
            store.get(DocumentId(99)),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn dangling_parent_is_rejected() {
        let store = Store::in_memory();
        let meta = Metadata::created_by("x").with_parent(DocumentId(42));
        assert!(matches!(
            store.insert("c", meta, &payload(1)),
            Err(StoreError::DanglingParent(_))
        ));
    }

    #[test]
    fn lineage_walks_parents_transitively() {
        let store = Store::in_memory();
        let a = store
            .insert("measurements", Metadata::created_by("mms"), &payload(1))
            .unwrap();
        let b = store
            .insert(
                "simulators",
                Metadata::created_by("tool2").with_parent(a),
                &payload(2),
            )
            .unwrap();
        let c = store
            .insert(
                "datasets",
                Metadata::created_by("tool3").with_parent(b),
                &payload(3),
            )
            .unwrap();
        let d = store
            .insert(
                "networks",
                Metadata::created_by("tool4").with_parents([c, a]),
                &payload(4),
            )
            .unwrap();
        let lineage = store.lineage(d).unwrap();
        assert_eq!(lineage[0], d);
        assert!(lineage.contains(&a));
        assert!(lineage.contains(&b));
        assert!(lineage.contains(&c));
        assert_eq!(lineage.len(), 4);
    }

    #[test]
    fn children_finds_descendants() {
        let store = Store::in_memory();
        let a = store
            .insert("m", Metadata::created_by("x"), &payload(1))
            .unwrap();
        let b = store
            .insert("s", Metadata::created_by("y").with_parent(a), &payload(2))
            .unwrap();
        assert_eq!(store.children(a), vec![b]);
        assert!(store.children(b).is_empty());
    }

    #[test]
    fn query_filters_by_param() {
        let store = Store::in_memory();
        store
            .insert(
                "networks",
                Metadata::created_by("tool4").with_param("activation", "selu"),
                &payload(1),
            )
            .unwrap();
        store
            .insert(
                "networks",
                Metadata::created_by("tool4").with_param("activation", "relu"),
                &payload(2),
            )
            .unwrap();
        let selu = store.query("networks", "activation", "selu");
        assert_eq!(selu.len(), 1);
        assert_eq!(selu[0].payload["value"], 1);
    }

    #[test]
    fn latest_returns_highest_sequence_match() {
        let store = Store::in_memory();
        let first = store
            .insert(
                "models",
                Metadata::created_by("deploy").with_param("model", "ms"),
                &payload(1),
            )
            .unwrap();
        let second = store
            .insert(
                "models",
                Metadata::created_by("deploy").with_param("model", "ms"),
                &payload(2),
            )
            .unwrap();
        assert!(second > first);
        let doc = store.latest("models", "model", "ms").unwrap();
        assert_eq!(doc.id, second);
        assert!(store.latest("models", "model", "nope").is_none());
    }

    #[test]
    fn collections_are_listed() {
        let store = Store::in_memory();
        store
            .insert("b", Metadata::created_by("x"), &payload(1))
            .unwrap();
        store
            .insert("a", Metadata::created_by("x"), &payload(2))
            .unwrap();
        assert_eq!(store.collections(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spectroai-store-{}", std::process::id()));
        let store = Store::in_memory();
        let a = store
            .insert("m", Metadata::created_by("x").with_param("k", "v"), &payload(1))
            .unwrap();
        let b = store
            .insert("s", Metadata::created_by("y").with_parent(a), &payload(2))
            .unwrap();
        store.save_to_dir(&dir).unwrap();
        let loaded = Store::load_from_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get(a).unwrap().payload["value"], 1);
        assert_eq!(loaded.lineage(b).unwrap(), vec![b, a]);
        // New inserts do not collide with loaded ids.
        let c = loaded
            .insert("m", Metadata::created_by("z"), &payload(3))
            .unwrap();
        assert!(c > b);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("spectroai-{tag}-{}", std::process::id()))
    }

    fn seeded_store(n: i64) -> Store {
        let store = Store::in_memory();
        for v in 0..n {
            store
                .insert("m", Metadata::created_by("x"), &payload(v))
                .unwrap();
        }
        store
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn saved_files_are_checksummed_envelopes() {
        let dir = temp_dir("envelope");
        seeded_store(1).save_to_dir(&dir).unwrap();
        let json = std::fs::read_to_string(dir.join("1.json")).unwrap();
        assert!(json.starts_with("{\"crc32\":"));
        assert!(json.contains("\"doc\":"));
        // No stray temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref().unwrap().path().extension().map(|x| x == "tmp") == Some(true)
            })
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_file_is_quarantined_not_fatal() {
        let dir = temp_dir("corrupt");
        seeded_store(3).save_to_dir(&dir).unwrap();
        // Flip payload bytes inside document 2's envelope.
        let path = dir.join("2.json");
        let tampered = std::fs::read_to_string(&path).unwrap().replace(
            "\"value\":1",
            "\"value\":9",
        );
        std::fs::write(&path, tampered).unwrap();

        let report = Store::load_from_dir_report(&dir).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].file, "2.json");
        assert!(report.quarantined[0].reason.contains("crc32 mismatch"));
        // The bad file moved into quarantine/ and out of the data dir.
        assert!(dir.join("quarantine").join("2.json").exists());
        assert!(!path.exists());
        assert!(matches!(
            report.store.get(DocumentId(2)),
            Err(StoreError::NotFound(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_is_detected_via_checksum() {
        let dir = temp_dir("torn");
        let plan = faultsim::FaultPlan::new().with_torn_write(1);
        seeded_store(3).save_to_dir_with_faults(&dir, &plan).unwrap();
        assert_eq!(plan.events().len(), 1);

        let report = Store::load_from_dir_report(&dir).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].reason.contains("invalid JSON"));
        // Reloading after quarantine is clean.
        let again = Store::load_from_dir_report(&dir).unwrap();
        assert_eq!(again.loaded, 2);
        assert!(again.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_bare_document_files_still_load() {
        let dir = temp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let store = seeded_store(1);
        let doc = store.get(DocumentId(1)).unwrap();
        let bare = serde_json::to_string(&doc).unwrap();
        std::fs::write(dir.join("1.json"), bare).unwrap();

        let report = Store::load_from_dir_report(&dir).unwrap();
        assert_eq!(report.loaded, 1);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.store.get(DocumentId(1)).unwrap(), doc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reads_share_the_stored_payload() {
        let store = Store::in_memory();
        let id = store
            .insert(
                "models",
                Metadata::created_by("deploy").with_param("model", "ms"),
                &payload(1),
            )
            .unwrap();
        let stored = store.get(id).unwrap().payload;
        let reads = [
            store.get(id).unwrap().payload,
            store.collection("models")[0].payload.clone(),
            store.query("models", "model", "ms")[0].payload.clone(),
            store.latest("models", "model", "ms").unwrap().payload,
        ];
        for read in &reads {
            assert!(Arc::ptr_eq(&stored, read));
        }
        // The store's own reference plus the ones held here, nothing else.
        assert_eq!(Arc::strong_count(&stored), 2 + reads.len());
        drop(reads);
        assert_eq!(Arc::strong_count(&stored), 2);
    }

    #[test]
    fn sequence_is_monotonic() {
        let store = Store::in_memory();
        let a = store
            .insert("m", Metadata::created_by("x"), &payload(1))
            .unwrap();
        let b = store
            .insert("m", Metadata::created_by("x"), &payload(2))
            .unwrap();
        assert!(store.get(b).unwrap().metadata.sequence > store.get(a).unwrap().metadata.sequence);
    }
}
