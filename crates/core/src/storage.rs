//! The server-side index **storage layer**.
//!
//! The paper's server holds one [`RankedDocumentIndex`] per document and scans all of
//! them per query (Eq. 3 over σ documents). This module separates *how the indices are
//! laid out* from *how queries execute* (the [`crate::engine`] layer):
//!
//! * [`IndexStore`] — the storage abstraction: geometry-validated inserts, O(1) lookup
//!   by document id, and shard-wise access for parallel scans.
//! * [`VecStore`] — the single-shard, contiguous layout (the original `CloudIndex`
//!   representation), still the reference for sequential scans.
//! * [`ShardedStore`] — partitions documents round-robin across N shards so the
//!   engine can scan them on N threads; an id → (shard, slot) map replaces the old
//!   O(σ) `iter().find()` lookup.
//!
//! Every store tracks the **insertion ordinal** of each document, so unranked results
//! and persisted snapshots keep the exact storage order of the sequential reference
//! regardless of the physical layout.
//!
//! Every store also maintains one block-major [`crate::scanplane::ScanPlane`] per
//! shard — a bit-sliced mirror of the shard's indices appended inside
//! [`IndexStore::insert`], exposed through [`IndexStore::scan_plane`] — and the
//! engine scans only planes. Because *every* mutation path (uploads, `insert_all`,
//! snapshot restores) funnels through `insert`, a plane can never go stale; and
//! because [`IndexStore::shard_of`] still names the written shard, the cache layer's
//! per-shard invalidation semantics are untouched by the new layout.

use crate::document_index::RankedDocumentIndex;
use crate::params::SystemParams;
use crate::scanplane::ScanPlane;
use std::collections::HashMap;

/// Errors produced when uploading a document index into a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The index was built with a different number of ranking levels (η) than the store.
    LevelCountMismatch {
        /// η of the store's parameters.
        expected: usize,
        /// η of the rejected index.
        found: usize,
    },
    /// Some level of the index has a different bit length (r) than the store.
    IndexSizeMismatch {
        /// r of the store's parameters.
        expected: usize,
        /// Offending level length of the rejected index.
        found: usize,
    },
    /// A document with this id is already stored.
    DuplicateDocument(u64),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::LevelCountMismatch { expected, found } => {
                write!(
                    f,
                    "index has {found} ranking levels, store expects {expected}"
                )
            }
            StoreError::IndexSizeMismatch { expected, found } => {
                write!(
                    f,
                    "index level is {found} bits long, store expects {expected}"
                )
            }
            StoreError::DuplicateDocument(id) => {
                write!(f, "document {id} is already stored")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Check an index against a store's parameters (the invariant every store upholds:
/// mixing parameter sets is a protocol violation).
pub fn check_geometry(
    params: &SystemParams,
    index: &RankedDocumentIndex,
) -> Result<(), StoreError> {
    if index.num_levels() != params.rank_levels() {
        return Err(StoreError::LevelCountMismatch {
            expected: params.rank_levels(),
            found: index.num_levels(),
        });
    }
    for level in &index.levels {
        if level.len() != params.index_bits {
            return Err(StoreError::IndexSizeMismatch {
                expected: params.index_bits,
                found: level.len(),
            });
        }
    }
    Ok(())
}

/// Storage abstraction the query-execution engine runs on.
///
/// A store is a set of shards, each a contiguous slice of document indices. The
/// engine scans shards independently (possibly in parallel); the store guarantees
/// that [`IndexStore::ordinal`] recovers the global insertion order so merged results
/// can reproduce the sequential scan's output exactly.
pub trait IndexStore: Send + Sync {
    /// The parameters every stored index was validated against.
    fn params(&self) -> &SystemParams;

    /// Upload one document index, validating its geometry and id uniqueness.
    fn insert(&mut self, index: RankedDocumentIndex) -> Result<(), StoreError>;

    /// Number of stored documents (σ).
    fn len(&self) -> usize;

    /// Number of shards the documents are partitioned into.
    fn num_shards(&self) -> usize;

    /// The documents of one shard, in slot order.
    fn shard_documents(&self, shard: usize) -> &[RankedDocumentIndex];

    /// Global insertion ordinal of the document at `(shard, slot)`; ordinals are the
    /// positions the documents would occupy in a single sequential store.
    fn ordinal(&self, shard: usize, slot: usize) -> u64;

    /// The stored index of one document, or `None` if unknown.
    fn document_index(&self, document_id: u64) -> Option<&RankedDocumentIndex>;

    /// The shard holding `document_id`, or `None` if unknown. The cache layer uses
    /// this after an insert to invalidate exactly the shard that changed.
    fn shard_of(&self, document_id: u64) -> Option<usize>;

    /// The shard's block-major [`ScanPlane`].
    ///
    /// A plane is a bit-sliced copy of the shard's indices that the engine sweeps
    /// instead of pointer-chasing `shard_documents`; it **must** stay in lockstep
    /// with every insert (both built-in stores append to it inside
    /// [`IndexStore::insert`], so restores and `insert_all` rebuild it for free).
    fn scan_plane(&self, shard: usize) -> &ScanPlane;

    /// True if no documents are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Upload many document indices, stopping at the first invalid one.
    fn insert_all<I: IntoIterator<Item = RankedDocumentIndex>>(
        &mut self,
        indices: I,
    ) -> Result<(), StoreError>
    where
        Self: Sized,
    {
        for idx in indices {
            self.insert(idx)?;
        }
        Ok(())
    }

    /// All stored indices in insertion order (used by persistence snapshots).
    fn documents_in_insertion_order(&self) -> Vec<&RankedDocumentIndex> {
        let mut ordered: Vec<(u64, &RankedDocumentIndex)> = Vec::with_capacity(self.len());
        for shard in 0..self.num_shards() {
            for (slot, doc) in self.shard_documents(shard).iter().enumerate() {
                ordered.push((self.ordinal(shard, slot), doc));
            }
        }
        ordered.sort_by_key(|(ordinal, _)| *ordinal);
        ordered.into_iter().map(|(_, doc)| doc).collect()
    }
}

/// The single-shard contiguous store — the layout of the original `CloudIndex`, kept
/// as the sequential reference implementation.
#[derive(Clone, Debug, Default)]
pub struct VecStore {
    params: SystemParams,
    documents: Vec<RankedDocumentIndex>,
    by_id: HashMap<u64, usize>,
    /// Block-major mirror of `documents`, appended on every insert.
    plane: ScanPlane,
}

impl VecStore {
    /// An empty store for the given parameters.
    pub fn new(params: SystemParams) -> Self {
        VecStore {
            params,
            documents: Vec::new(),
            by_id: HashMap::new(),
            plane: ScanPlane::new(),
        }
    }

    /// The stored indices in insertion order, as a contiguous slice.
    pub fn documents(&self) -> &[RankedDocumentIndex] {
        &self.documents
    }
}

impl IndexStore for VecStore {
    fn params(&self) -> &SystemParams {
        &self.params
    }

    fn insert(&mut self, index: RankedDocumentIndex) -> Result<(), StoreError> {
        check_geometry(&self.params, &index)?;
        if self.by_id.contains_key(&index.document_id) {
            return Err(StoreError::DuplicateDocument(index.document_id));
        }
        self.by_id.insert(index.document_id, self.documents.len());
        self.plane.push(&index);
        self.documents.push(index);
        Ok(())
    }

    fn len(&self) -> usize {
        self.documents.len()
    }

    fn num_shards(&self) -> usize {
        1
    }

    fn shard_documents(&self, shard: usize) -> &[RankedDocumentIndex] {
        assert_eq!(shard, 0, "VecStore has a single shard");
        &self.documents
    }

    fn ordinal(&self, shard: usize, slot: usize) -> u64 {
        assert_eq!(shard, 0, "VecStore has a single shard");
        slot as u64
    }

    fn document_index(&self, document_id: u64) -> Option<&RankedDocumentIndex> {
        self.by_id.get(&document_id).map(|&i| &self.documents[i])
    }

    fn shard_of(&self, document_id: u64) -> Option<usize> {
        self.by_id.get(&document_id).map(|_| 0)
    }

    fn scan_plane(&self, shard: usize) -> &ScanPlane {
        assert_eq!(shard, 0, "VecStore has a single shard");
        &self.plane
    }
}

/// A store that partitions documents **round-robin** across `num_shards` shards.
///
/// Round-robin keeps shards balanced within one document of each other for any
/// insertion pattern, and makes the insertion ordinal recoverable arithmetically:
/// the document at `(shard, slot)` was insertion number `slot · N + shard`.
#[derive(Clone, Debug)]
pub struct ShardedStore {
    params: SystemParams,
    shards: Vec<Vec<RankedDocumentIndex>>,
    /// Per-shard block-major mirrors, appended in lockstep with `shards`.
    planes: Vec<ScanPlane>,
    /// document id → (shard, slot): O(1) metadata lookup instead of a linear scan.
    by_id: HashMap<u64, (u32, u32)>,
    total: usize,
}

impl ShardedStore {
    /// An empty store with `num_shards` shards (clamped to at least 1).
    pub fn new(params: SystemParams, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        ShardedStore {
            params,
            shards: vec![Vec::new(); num_shards],
            planes: vec![ScanPlane::new(); num_shards],
            by_id: HashMap::new(),
            total: 0,
        }
    }

    /// Shard sizes, for observability and tests.
    pub fn shard_lengths(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }
}

impl IndexStore for ShardedStore {
    fn params(&self) -> &SystemParams {
        &self.params
    }

    fn insert(&mut self, index: RankedDocumentIndex) -> Result<(), StoreError> {
        check_geometry(&self.params, &index)?;
        if self.by_id.contains_key(&index.document_id) {
            return Err(StoreError::DuplicateDocument(index.document_id));
        }
        let shard = self.total % self.shards.len();
        let slot = self.shards[shard].len();
        self.by_id
            .insert(index.document_id, (shard as u32, slot as u32));
        self.planes[shard].push(&index);
        self.shards[shard].push(index);
        self.total += 1;
        Ok(())
    }

    fn len(&self) -> usize {
        self.total
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_documents(&self, shard: usize) -> &[RankedDocumentIndex] {
        &self.shards[shard]
    }

    fn ordinal(&self, shard: usize, slot: usize) -> u64 {
        (slot * self.shards.len() + shard) as u64
    }

    fn document_index(&self, document_id: u64) -> Option<&RankedDocumentIndex> {
        self.by_id
            .get(&document_id)
            .map(|&(shard, slot)| &self.shards[shard as usize][slot as usize])
    }

    fn shard_of(&self, document_id: u64) -> Option<usize> {
        self.by_id
            .get(&document_id)
            .map(|&(shard, _)| shard as usize)
    }

    fn scan_plane(&self, shard: usize) -> &ScanPlane {
        &self.planes[shard]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document_index::DocumentIndexer;
    use crate::keys::SchemeKeys;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn indexer_fixture(params: &SystemParams) -> SchemeKeys {
        SchemeKeys::generate(params, &mut StdRng::seed_from_u64(71))
    }

    #[test]
    fn vec_store_preserves_insertion_order_and_lookup() {
        let params = SystemParams::default();
        let keys = indexer_fixture(&params);
        let indexer = DocumentIndexer::new(&params, &keys);
        let mut store = VecStore::new(params.clone());
        for id in [5u64, 3, 9] {
            store.insert(indexer.index_keywords(id, &["kw"])).unwrap();
        }
        assert_eq!(store.len(), 3);
        assert_eq!(store.num_shards(), 1);
        assert_eq!(store.shard_documents(0)[1].document_id, 3);
        assert_eq!(store.ordinal(0, 2), 2);
        assert_eq!(store.document_index(9).unwrap().document_id, 9);
        assert!(store.document_index(4).is_none());
        assert_eq!(store.shard_of(9), Some(0));
        assert_eq!(store.shard_of(4), None);
        let ordered: Vec<u64> = store
            .documents_in_insertion_order()
            .iter()
            .map(|d| d.document_id)
            .collect();
        assert_eq!(ordered, vec![5, 3, 9]);
    }

    #[test]
    fn sharded_store_round_robins_and_recovers_order() {
        let params = SystemParams::default();
        let keys = indexer_fixture(&params);
        let indexer = DocumentIndexer::new(&params, &keys);
        let mut store = ShardedStore::new(params.clone(), 3);
        store
            .insert_all((0..10u64).map(|id| indexer.index_keywords(id, &["kw"])))
            .unwrap();
        assert_eq!(store.len(), 10);
        assert_eq!(store.shard_lengths(), vec![4, 3, 3]);
        // Document 7 went to shard 7 % 3 = 1, slot 7 / 3 = 2.
        assert_eq!(store.shard_documents(1)[2].document_id, 7);
        assert_eq!(store.ordinal(1, 2), 7);
        assert_eq!(store.document_index(7).unwrap().document_id, 7);
        assert_eq!(store.shard_of(7), Some(1));
        assert_eq!(store.shard_of(99), None);
        let ordered: Vec<u64> = store
            .documents_in_insertion_order()
            .iter()
            .map(|d| d.document_id)
            .collect();
        assert_eq!(ordered, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn scan_planes_stay_in_lockstep_with_shard_documents() {
        let params = SystemParams::default();
        let keys = indexer_fixture(&params);
        let indexer = DocumentIndexer::new(&params, &keys);

        let mut vec_store = VecStore::new(params.clone());
        let mut sharded = ShardedStore::new(params.clone(), 3);
        for id in 0..10u64 {
            let idx = indexer.index_keywords(id, &["kw", &format!("kw{id}")]);
            vec_store.insert(idx.clone()).unwrap();
            sharded.insert(idx).unwrap();
        }
        // A rejected insert must not dirty any plane.
        assert!(sharded.insert(indexer.index_keywords(3, &["dup"])).is_err());

        let plane = vec_store.scan_plane(0);
        assert_eq!(plane.len(), vec_store.len());
        let ids: Vec<u64> = vec_store
            .documents()
            .iter()
            .map(|d| d.document_id)
            .collect();
        assert_eq!(plane.ids(), &ids[..]);

        for shard in 0..sharded.num_shards() {
            let plane = sharded.scan_plane(shard);
            let docs = sharded.shard_documents(shard);
            assert_eq!(plane.len(), docs.len(), "shard {shard}");
            let ids: Vec<u64> = docs.iter().map(|d| d.document_id).collect();
            assert_eq!(plane.ids(), &ids[..], "shard {shard}");
            assert_eq!(plane.bits(), params.index_bits);
            assert_eq!(plane.levels(), params.rank_levels());
        }
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let store = ShardedStore::new(SystemParams::default(), 0);
        assert_eq!(store.num_shards(), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn geometry_violations_are_rejected() {
        let params3 = SystemParams::default();
        let params1 = SystemParams::without_ranking();
        let keys1 = indexer_fixture(&params1);
        let indexer1 = DocumentIndexer::new(&params1, &keys1);
        let mut store = ShardedStore::new(params3.clone(), 2);
        assert_eq!(
            store.insert(indexer1.index_keywords(0, &["kw"])),
            Err(StoreError::LevelCountMismatch {
                expected: 3,
                found: 1
            })
        );

        let params_small = SystemParams::new(64, 4, 16, 0, 0, vec![1]).unwrap();
        let keys_small = indexer_fixture(&params_small);
        let indexer_small = DocumentIndexer::new(&params_small, &keys_small);
        let mut store1 = VecStore::new(params1.clone());
        assert_eq!(
            store1.insert(indexer_small.index_keywords(0, &["kw"])),
            Err(StoreError::IndexSizeMismatch {
                expected: 448,
                found: 64
            })
        );
    }

    #[test]
    fn duplicate_ids_are_rejected_in_both_stores() {
        let params = SystemParams::default();
        let keys = indexer_fixture(&params);
        let indexer = DocumentIndexer::new(&params, &keys);
        let mut vec_store = VecStore::new(params.clone());
        vec_store.insert(indexer.index_keywords(1, &["a"])).unwrap();
        assert_eq!(
            vec_store.insert(indexer.index_keywords(1, &["b"])),
            Err(StoreError::DuplicateDocument(1))
        );
        let mut sharded = ShardedStore::new(params.clone(), 4);
        sharded.insert(indexer.index_keywords(1, &["a"])).unwrap();
        assert_eq!(
            sharded.insert(indexer.index_keywords(1, &["b"])),
            Err(StoreError::DuplicateDocument(1))
        );
        // A failed insert must not consume a round-robin position.
        sharded.insert(indexer.index_keywords(2, &["c"])).unwrap();
        assert_eq!(sharded.shard_lengths(), vec![1, 1, 0, 0]);
    }

    #[test]
    fn error_display_is_informative() {
        for e in [
            StoreError::LevelCountMismatch {
                expected: 3,
                found: 1,
            },
            StoreError::IndexSizeMismatch {
                expected: 448,
                found: 64,
            },
            StoreError::DuplicateDocument(42),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
