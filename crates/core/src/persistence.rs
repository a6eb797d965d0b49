//! Binary serialization of searchable indices.
//!
//! The cloud server in the paper's model is a long-lived service: the data owner uploads the
//! search index files once (offline phase) and the server keeps them across restarts. This
//! module gives [`RankedDocumentIndex`] and whole index stores a compact, versioned binary
//! encoding — `8 + η·⌈r/8⌉` bytes per document, matching the storage-overhead analysis at the
//! end of §5 — without pulling in any serialization framework beyond what the index itself
//! needs.
//!
//! Snapshots capture **only** the stored indices: the result cache of
//! [`crate::engine::SearchEngine`] is derived state and is never serialized, and so
//! is the block-major [`crate::scanplane::ScanPlane`] — the byte format is
//! **layout-independent** (insertion order, one document at a time), and restoring
//! funnels every decoded index through [`IndexStore::insert`], which rebuilds the
//! destination store's planes as a side effect. Restoring through
//! [`crate::engine::SearchEngine::restore_snapshot`] (or any path through
//! `store_mut`) bumps every cache generation, so entries cached before a reload can
//! never be served after it.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! store  := magic "MKSE" | version u16 | r u32 | eta u16 | count u64 | entry*
//! entry  := document_id u64 | level_bits × eta
//! ```

use crate::bitindex::BitIndex;
use crate::document_index::RankedDocumentIndex;
use crate::params::SystemParams;
use crate::storage::{IndexStore, StoreError};

const MAGIC: &[u8; 4] = b"MKSE";
const VERSION: u16 = 1;

/// Errors produced while decoding a serialized index store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistenceError {
    /// The buffer does not start with the `MKSE` magic.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u16),
    /// The buffer ended before the declared content.
    Truncated,
    /// The declared geometry does not match the supplied parameters.
    ParameterMismatch {
        expected_r: usize,
        found_r: usize,
        expected_eta: usize,
        found_eta: usize,
    },
    /// A decoded index was rejected by the destination store (e.g. duplicate id).
    Store(StoreError),
}

impl std::fmt::Display for PersistenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistenceError::BadMagic => write!(f, "not an MKSE index store"),
            PersistenceError::UnsupportedVersion(v) => write!(f, "unsupported store version {v}"),
            PersistenceError::Truncated => write!(f, "store is truncated"),
            PersistenceError::ParameterMismatch {
                expected_r,
                found_r,
                expected_eta,
                found_eta,
            } => {
                write!(
                    f,
                    "parameter mismatch: store has r={found_r}, eta={found_eta}; expected r={expected_r}, eta={expected_eta}"
                )
            }
            PersistenceError::Store(e) => write!(f, "store rejected decoded index: {e}"),
        }
    }
}

impl std::error::Error for PersistenceError {}

impl From<StoreError> for PersistenceError {
    fn from(e: StoreError) -> Self {
        PersistenceError::Store(e)
    }
}

/// Serialize a collection of document indices into the binary store format.
///
/// Panics if any index disagrees with `params` on the index size or level count (the same
/// invariant [`crate::search::CloudIndex::insert`] enforces).
pub fn serialize_store(params: &SystemParams, indices: &[RankedDocumentIndex]) -> Vec<u8> {
    let r_bytes = params.index_bits.div_ceil(8);
    let eta = params.rank_levels();
    let mut out = Vec::with_capacity(20 + indices.len() * (8 + eta * r_bytes));
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(params.index_bits as u32).to_le_bytes());
    out.extend_from_slice(&(eta as u16).to_le_bytes());
    out.extend_from_slice(&(indices.len() as u64).to_le_bytes());
    for idx in indices {
        assert_eq!(idx.num_levels(), eta, "level count mismatch");
        out.extend_from_slice(&idx.document_id.to_le_bytes());
        for level in &idx.levels {
            assert_eq!(level.len(), params.index_bits, "index size mismatch");
            out.extend_from_slice(&level.to_bytes());
        }
    }
    out
}

/// Decode a binary store produced by [`serialize_store`], validating it against `params`.
pub fn deserialize_store(
    params: &SystemParams,
    bytes: &[u8],
) -> Result<Vec<RankedDocumentIndex>, PersistenceError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    if cursor.take(4)? != MAGIC {
        return Err(PersistenceError::BadMagic);
    }
    let version = u16::from_le_bytes(cursor.take(2)?.try_into().unwrap());
    if version != VERSION {
        return Err(PersistenceError::UnsupportedVersion(version));
    }
    let r = u32::from_le_bytes(cursor.take(4)?.try_into().unwrap()) as usize;
    let eta = u16::from_le_bytes(cursor.take(2)?.try_into().unwrap()) as usize;
    if r != params.index_bits || eta != params.rank_levels() {
        return Err(PersistenceError::ParameterMismatch {
            expected_r: params.index_bits,
            found_r: r,
            expected_eta: params.rank_levels(),
            found_eta: eta,
        });
    }
    let count = u64::from_le_bytes(cursor.take(8)?.try_into().unwrap()) as usize;
    let r_bytes = r.div_ceil(8);
    let mut indices = Vec::with_capacity(count);
    for _ in 0..count {
        let document_id = u64::from_le_bytes(cursor.take(8)?.try_into().unwrap());
        let mut levels = Vec::with_capacity(eta);
        for _ in 0..eta {
            levels.push(BitIndex::from_bytes(cursor.take(r_bytes)?, r));
        }
        indices.push(RankedDocumentIndex {
            document_id,
            levels,
        });
    }
    Ok(indices)
}

/// Snapshot any [`IndexStore`] into the binary store format, in insertion order.
///
/// The byte output is **layout-independent**: a sharded store and the sequential
/// reference store holding the same uploads serialize identically, so snapshots can
/// be restored into a store with any shard count.
pub fn serialize_index_store<S: IndexStore>(store: &S) -> Vec<u8> {
    let ordered: Vec<RankedDocumentIndex> = store
        .documents_in_insertion_order()
        .into_iter()
        .cloned()
        .collect();
    serialize_store(store.params(), &ordered)
}

/// Snapshot a **single shard** of an [`IndexStore`] into the same versioned
/// binary format — the re-assignment currency of the fleet layer: when a node
/// dies, the coordinator ships exactly the lost shards to survivors instead of
/// a whole-store snapshot.
///
/// Within one shard, slot order *is* global insertion order restricted to that
/// shard (round-robin placement makes ordinals monotone in the slot), so the
/// slice is already ordered and the output stays **layout-independent**: it can
/// be restored through [`deserialize_into`] into a store with any shard count,
/// and funnels through [`IndexStore::insert`] like every other mutation path.
pub fn serialize_shard<S: IndexStore>(store: &S, shard: usize) -> Vec<u8> {
    serialize_store(store.params(), store.shard_documents(shard))
}

/// Restore a snapshot produced by [`serialize_index_store`] (or [`serialize_store`])
/// into `store`, appending the decoded indices in their original insertion order.
///
/// Returns the number of restored documents.
pub fn deserialize_into<S: IndexStore>(
    store: &mut S,
    bytes: &[u8],
) -> Result<usize, PersistenceError> {
    let indices = deserialize_store(store.params(), bytes)?;
    let count = indices.len();
    for idx in indices {
        store.insert(idx)?;
    }
    Ok(count)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], PersistenceError> {
        if self.pos + len > self.bytes.len() {
            return Err(PersistenceError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document_index::DocumentIndexer;
    use crate::keys::SchemeKeys;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_indices(params: &SystemParams, n: u64) -> Vec<RankedDocumentIndex> {
        let keys = SchemeKeys::generate(params, &mut StdRng::seed_from_u64(1));
        let indexer = DocumentIndexer::new(params, &keys);
        (0..n)
            .map(|id| indexer.index_keywords(id, &[&format!("kw{id}"), "shared"]))
            .collect()
    }

    #[test]
    fn round_trip_preserves_every_index() {
        let params = SystemParams::default();
        let indices = sample_indices(&params, 5);
        let bytes = serialize_store(&params, &indices);
        let decoded = deserialize_store(&params, &bytes).unwrap();
        assert_eq!(decoded, indices);
        // Size matches the §5 storage analysis: header + n·(8 + η·r/8).
        assert_eq!(bytes.len(), 20 + 5 * (8 + 3 * 56));
    }

    #[test]
    fn empty_store_round_trips() {
        let params = SystemParams::without_ranking();
        let bytes = serialize_store(&params, &[]);
        assert!(deserialize_store(&params, &bytes).unwrap().is_empty());
    }

    #[test]
    fn corrupted_magic_and_version_are_rejected() {
        let params = SystemParams::default();
        let mut bytes = serialize_store(&params, &sample_indices(&params, 1));
        bytes[0] = b'X';
        assert_eq!(
            deserialize_store(&params, &bytes),
            Err(PersistenceError::BadMagic)
        );

        let mut bytes = serialize_store(&params, &sample_indices(&params, 1));
        bytes[4] = 0xff;
        assert!(matches!(
            deserialize_store(&params, &bytes),
            Err(PersistenceError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn truncated_store_is_rejected() {
        let params = SystemParams::default();
        let bytes = serialize_store(&params, &sample_indices(&params, 2));
        for cut in [3usize, 10, 21, bytes.len() - 1] {
            assert_eq!(
                deserialize_store(&params, &bytes[..cut]),
                Err(PersistenceError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn parameter_mismatch_is_rejected() {
        let params3 = SystemParams::default();
        let params1 = SystemParams::without_ranking();
        let bytes = serialize_store(&params3, &sample_indices(&params3, 1));
        assert!(matches!(
            deserialize_store(&params1, &bytes),
            Err(PersistenceError::ParameterMismatch { .. })
        ));
    }

    #[test]
    fn error_display() {
        assert!(!format!("{}", PersistenceError::BadMagic).is_empty());
        assert!(format!("{}", PersistenceError::UnsupportedVersion(9)).contains('9'));
        assert!(!format!("{}", PersistenceError::Truncated).is_empty());
    }

    #[test]
    fn sharded_snapshot_equals_sequential_snapshot() {
        use crate::storage::{IndexStore, ShardedStore, VecStore};
        let params = SystemParams::default();
        let indices = sample_indices(&params, 11);
        let mut sequential = VecStore::new(params.clone());
        sequential.insert_all(indices.iter().cloned()).unwrap();
        let mut sharded = ShardedStore::new(params.clone(), 4);
        sharded.insert_all(indices.iter().cloned()).unwrap();
        // Layout independence: both snapshots are byte-identical.
        let bytes = serialize_index_store(&sequential);
        assert_eq!(bytes, serialize_index_store(&sharded));
        assert_eq!(bytes, serialize_store(&params, &indices));
        // Restoring into a store with a different shard count preserves content.
        let mut restored = ShardedStore::new(params.clone(), 7);
        assert_eq!(deserialize_into(&mut restored, &bytes).unwrap(), 11);
        assert_eq!(
            restored
                .documents_in_insertion_order()
                .into_iter()
                .cloned()
                .collect::<Vec<_>>(),
            indices
        );
    }

    #[test]
    fn per_shard_snapshots_cover_the_store_and_restore_anywhere() {
        use crate::storage::{IndexStore, ShardedStore, VecStore};
        let params = SystemParams::default();
        let indices = sample_indices(&params, 13);
        let mut sharded = ShardedStore::new(params.clone(), 4);
        sharded.insert_all(indices.iter().cloned()).unwrap();

        // Each shard slice serializes exactly that shard's documents in slot
        // (= per-shard insertion) order.
        let mut total = 0usize;
        for shard in 0..sharded.num_shards() {
            let bytes = serialize_shard(&sharded, shard);
            assert_eq!(
                bytes,
                serialize_store(&params, sharded.shard_documents(shard))
            );
            let decoded = deserialize_store(&params, &bytes).unwrap();
            assert_eq!(decoded.as_slice(), sharded.shard_documents(shard));
            total += decoded.len();
        }
        assert_eq!(total, sharded.len(), "shard slices cover the store");

        // Restoring every slice into a differently-sharded store recovers the
        // full corpus, regardless of the destination layout.
        let mut restored = ShardedStore::new(params.clone(), 3);
        for shard in 0..sharded.num_shards() {
            deserialize_into(&mut restored, &serialize_shard(&sharded, shard)).unwrap();
        }
        assert_eq!(restored.len(), sharded.len());
        for idx in &indices {
            assert_eq!(restored.document_index(idx.document_id), Some(idx));
        }

        // A single-shard store's one slice equals its whole-store snapshot.
        let mut vec_store = VecStore::new(params.clone());
        vec_store.insert_all(indices.iter().cloned()).unwrap();
        assert_eq!(
            serialize_shard(&vec_store, 0),
            serialize_index_store(&vec_store)
        );
    }

    #[test]
    fn restore_rebuilds_scan_planes() {
        use crate::storage::{IndexStore, ShardedStore};
        let params = SystemParams::default();
        let indices = sample_indices(&params, 9);
        let bytes = serialize_store(&params, &indices);
        let mut restored = ShardedStore::new(params.clone(), 4);
        assert_eq!(deserialize_into(&mut restored, &bytes).unwrap(), 9);
        for shard in 0..restored.num_shards() {
            let plane = restored.scan_plane(shard);
            let docs = restored.shard_documents(shard);
            assert_eq!(plane.len(), docs.len(), "shard {shard}");
            let ids: Vec<u64> = docs.iter().map(|d| d.document_id).collect();
            assert_eq!(plane.ids(), &ids[..], "shard {shard}");
        }
    }

    #[test]
    fn restoring_into_a_populated_store_rejects_duplicates() {
        use crate::storage::{IndexStore, ShardedStore};
        let params = SystemParams::default();
        let indices = sample_indices(&params, 3);
        let bytes = serialize_store(&params, &indices);
        let mut store = ShardedStore::new(params.clone(), 2);
        store.insert(indices[1].clone()).unwrap();
        assert!(matches!(
            deserialize_into(&mut store, &bytes),
            Err(PersistenceError::Store(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_round_trip_arbitrary_store_sizes(n in 0u64..20) {
            let params = SystemParams::with_five_levels();
            let indices = sample_indices(&params, n);
            let decoded = deserialize_store(&params, &serialize_store(&params, &indices)).unwrap();
            prop_assert_eq!(decoded, indices);
        }
    }
}
