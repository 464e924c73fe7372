//! An in-memory LMDB-like record store with background prefetching.
//!
//! The paper converts ImageNet to LMDB and notes "ShmCaffe prefetches 10
//! sets of minibatch training data" so "the data feeding bottleneck is
//! negligible" (§IV-C). [`RecordDb`] is the keyed record store and
//! [`Prefetcher`] is the background thread that keeps a bounded queue of
//! decoded minibatches ahead of the consumer.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

use shmcaffe_tensor::Tensor;

use crate::data::Dataset;
use crate::DnnError;

const RECORD_MAGIC: u32 = 0x53434442; // "SCDB"

/// One serialised training record: a feature tensor plus an integer label.
///
/// The wire format is `magic | label | dim_count | dims... | f32 data...`,
/// little-endian — a minimal stand-in for Caffe's `Datum` protobuf.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Feature dimensions (without batch axis).
    pub dims: Vec<u32>,
    /// Class label.
    pub label: u32,
    /// Row-major feature data.
    pub data: Vec<f32>,
}

impl Record {
    /// Serialises the record.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(12 + self.dims.len() * 4 + self.data.len() * 4);
        buf.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        buf.extend_from_slice(&self.label.to_le_bytes());
        buf.extend_from_slice(&(self.dims.len() as u32).to_le_bytes());
        for &d in &self.dims {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        for &v in &self.data {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Deserialises a record.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::CorruptRecord`] on truncation, a bad magic number
    /// or a length mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Self, DnnError> {
        let word = |w: &[u8]| [w[0], w[1], w[2], w[3]];
        if bytes.len() < 12 {
            return Err(DnnError::CorruptRecord("header truncated".to_string()));
        }
        let (header, rest) = bytes.split_at(12);
        let magic = u32::from_le_bytes(word(&header[0..4]));
        if magic != RECORD_MAGIC {
            return Err(DnnError::CorruptRecord(format!("bad magic 0x{magic:08x}")));
        }
        let label = u32::from_le_bytes(word(&header[4..8]));
        let dim_count = u32::from_le_bytes(word(&header[8..12])) as usize;
        if rest.len() / 4 < dim_count {
            return Err(DnnError::CorruptRecord("dims truncated".to_string()));
        }
        let (dim_bytes, payload) = rest.split_at(dim_count * 4);
        let dims: Vec<u32> =
            dim_bytes.chunks_exact(4).map(|w| u32::from_le_bytes(word(w))).collect();
        let elems: usize = dims.iter().map(|&d| d as usize).product();
        if payload.len() != elems * 4 {
            return Err(DnnError::CorruptRecord(format!(
                "expected {} data bytes, found {}",
                elems * 4,
                payload.len()
            )));
        }
        let data = payload.chunks_exact(4).map(|w| f32::from_le_bytes(word(w))).collect();
        Ok(Record { dims, label, data })
    }
}

/// A sorted, keyed, in-memory record database (the LMDB stand-in).
///
/// # Example
///
/// ```rust
/// use shmcaffe_dnn::recorddb::{Record, RecordDb};
///
/// # fn main() -> Result<(), shmcaffe_dnn::DnnError> {
/// let db = RecordDb::new();
/// db.put("img_000", &Record { dims: vec![2], label: 1, data: vec![0.5, -0.5] });
/// let rec = db.get("img_000")?;
/// assert_eq!(rec.label, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct RecordDb {
    inner: Arc<RwLock<BTreeMap<String, Vec<u8>>>>,
}

impl RecordDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        RecordDb::default()
    }

    /// Builds a database from a [`Dataset`], with zero-padded numeric keys
    /// (the Caffe convert_imageset convention).
    ///
    /// # Errors
    ///
    /// Propagates dataset sampling errors.
    pub fn from_dataset<D: Dataset>(dataset: &D) -> Result<Self, DnnError> {
        let db = RecordDb::new();
        let dims: Vec<u32> = dataset.feature_dims().iter().map(|&d| d as u32).collect();
        for i in 0..dataset.len() {
            let (data, label) = dataset.sample(i)?;
            db.put(&format!("{i:08}"), &Record { dims: dims.clone(), label: label as u32, data });
        }
        Ok(db)
    }

    /// Inserts or replaces a record.
    pub fn put(&self, key: &str, record: &Record) {
        self.inner.write().insert(key.to_string(), record.encode());
    }

    /// Fetches and decodes a record.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::MissingRecord`] or [`DnnError::CorruptRecord`].
    pub fn get(&self, key: &str) -> Result<Record, DnnError> {
        let inner = self.inner.read();
        let bytes = inner.get(key).ok_or_else(|| DnnError::MissingRecord(key.to_string()))?;
        Record::decode(bytes)
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All keys in sorted order.
    pub fn keys(&self) -> Vec<String> {
        self.inner.read().keys().cloned().collect()
    }

    /// Total serialised size in bytes (the paper's "240 GB LMDB" analogue).
    pub fn byte_size(&self) -> usize {
        self.inner.read().values().map(|b| b.len()).sum()
    }
}

/// A [`Dataset`] view over a [`RecordDb`], so training can run directly
/// off the LMDB-like store (the paper's data path: ImageNet → LMDB →
/// data layer).
///
/// Keys are sorted and indexed once at construction; record shapes are
/// taken from the first record.
#[derive(Debug, Clone)]
pub struct RecordDbDataset {
    db: RecordDb,
    keys: Vec<String>,
    dims: Vec<usize>,
    classes: usize,
}

impl RecordDbDataset {
    /// Wraps a database, inferring feature dims from the first record and
    /// the class count from the maximum stored label.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::MissingRecord`] for an empty database or
    /// [`DnnError::CorruptRecord`] if records disagree in shape.
    pub fn new(db: RecordDb) -> Result<Self, DnnError> {
        let keys = db.keys();
        if keys.is_empty() {
            return Err(DnnError::MissingRecord("database is empty".to_string()));
        }
        let first = db.get(&keys[0])?;
        let dims: Vec<usize> = first.dims.iter().map(|&d| d as usize).collect();
        let mut classes = 0usize;
        for key in &keys {
            let rec = db.get(key)?;
            if rec.dims != first.dims {
                return Err(DnnError::CorruptRecord(format!(
                    "record {key} has shape {:?}, expected {:?}",
                    rec.dims, first.dims
                )));
            }
            classes = classes.max(rec.label as usize + 1);
        }
        Ok(RecordDbDataset { db, keys, dims, classes })
    }
}

impl Dataset for RecordDbDataset {
    fn len(&self) -> usize {
        self.keys.len()
    }
    fn feature_dims(&self) -> Vec<usize> {
        self.dims.clone()
    }
    fn num_classes(&self) -> usize {
        self.classes
    }
    fn sample(&self, index: usize) -> Result<(Vec<f32>, usize), DnnError> {
        let key = self
            .keys
            .get(index)
            .ok_or(DnnError::IndexOutOfRange { index, len: self.keys.len() })?;
        let rec = self.db.get(key)?;
        Ok((rec.data, rec.label as usize))
    }
}

/// A decoded minibatch ready for the solver.
#[derive(Debug, Clone)]
pub struct Minibatch {
    /// Batched features `(B, dims...)`.
    pub features: Tensor,
    /// Labels, one per row.
    pub labels: Vec<usize>,
}

/// Background minibatch prefetcher over a [`RecordDb`].
///
/// Spawns a producer thread that decodes batches of `batch_size` records
/// (cycling over `keys` in order) into a bounded queue of `depth` batches —
/// the paper uses depth 10.
#[derive(Debug)]
pub struct Prefetcher {
    rx: Receiver<Minibatch>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Starts prefetching `total_batches` minibatches, `depth` ahead.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty or `batch_size == 0`.
    pub fn spawn(
        db: RecordDb,
        keys: Vec<String>,
        batch_size: usize,
        depth: usize,
        total_batches: usize,
    ) -> Self {
        assert!(!keys.is_empty(), "prefetcher needs at least one key");
        assert!(batch_size > 0, "batch_size must be positive");
        let (tx, rx) = sync_channel(depth.max(1));
        let handle = std::thread::Builder::new()
            .name("prefetcher".to_string())
            .spawn(move || {
                let mut cursor = 0usize;
                for _ in 0..total_batches {
                    let mut data = Vec::new();
                    let mut labels = Vec::with_capacity(batch_size);
                    let mut dims: Option<Vec<u32>> = None;
                    for _ in 0..batch_size {
                        let key = &keys[cursor % keys.len()];
                        cursor += 1;
                        match db.get(key) {
                            Ok(rec) => {
                                if dims.is_none() {
                                    dims = Some(rec.dims.clone());
                                }
                                data.extend_from_slice(&rec.data);
                                labels.push(rec.label as usize);
                            }
                            Err(_) => return, // db corrupted/cleared: stop producing
                        }
                    }
                    let dims = dims.expect("batch_size > 0 guarantees at least one record");
                    let mut shape = vec![labels.len()];
                    shape.extend(dims.iter().map(|&d| d as usize));
                    let features = match Tensor::from_vec(data, &shape) {
                        Ok(t) => t,
                        Err(_) => return,
                    };
                    if tx.send(Minibatch { features, labels }).is_err() {
                        return; // consumer dropped
                    }
                }
            })
            .expect("failed to spawn prefetcher thread");
        Prefetcher { rx, handle: Some(handle) }
    }

    /// Receives the next prefetched minibatch, or `None` when the producer
    /// has finished.
    pub fn next_batch(&self) -> Option<Minibatch> {
        self.rx.recv().ok()
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // Hang up so a producer blocked on a full queue unblocks, then join.
        drop(std::mem::replace(&mut self.rx, sync_channel(0).1));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticBlobs;

    #[test]
    fn record_roundtrip() {
        let rec = Record { dims: vec![2, 3], label: 7, data: (0..6).map(|v| v as f32).collect() };
        let decoded = Record::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Record::decode(b"xx").is_err());
        assert!(Record::decode(&[0u8; 16]).is_err());
        // Valid header but truncated payload.
        let rec = Record { dims: vec![4], label: 0, data: vec![1.0; 4] };
        let mut bytes = rec.encode();
        bytes.truncate(bytes.len() - 4);
        assert!(Record::decode(&bytes).is_err());
    }

    #[test]
    fn db_put_get_missing() {
        let db = RecordDb::new();
        assert!(db.is_empty());
        let rec = Record { dims: vec![1], label: 3, data: vec![9.0] };
        db.put("k", &rec);
        assert_eq!(db.get("k").unwrap(), rec);
        assert!(matches!(db.get("nope"), Err(DnnError::MissingRecord(_))));
        assert_eq!(db.len(), 1);
        assert!(db.byte_size() > 0);
    }

    #[test]
    fn from_dataset_preserves_everything() {
        let ds = SyntheticBlobs::new(3, 4, 12, 0.1, 5);
        let db = RecordDb::from_dataset(&ds).unwrap();
        assert_eq!(db.len(), 12);
        for i in 0..12 {
            let rec = db.get(&format!("{i:08}")).unwrap();
            let (f, l) = ds.sample(i).unwrap();
            assert_eq!(rec.data, f);
            assert_eq!(rec.label as usize, l);
        }
    }

    #[test]
    fn prefetcher_produces_batches_in_key_order() {
        let ds = SyntheticBlobs::new(2, 3, 8, 0.1, 5);
        let db = RecordDb::from_dataset(&ds).unwrap();
        let pf = Prefetcher::spawn(db, (0..8).map(|i| format!("{i:08}")).collect(), 4, 2, 3);
        let b1 = pf.next_batch().unwrap();
        assert_eq!(b1.features.dims(), &[4, 3]);
        assert_eq!(b1.labels, vec![0, 1, 0, 1]);
        let b2 = pf.next_batch().unwrap();
        assert_eq!(b2.labels.len(), 4);
        // Third batch wraps around to the start.
        let b3 = pf.next_batch().unwrap();
        assert_eq!(b3.labels, b1.labels);
        assert!(pf.next_batch().is_none());
    }

    #[test]
    fn recorddb_dataset_mirrors_source() {
        let ds = SyntheticBlobs::new(3, 4, 15, 0.1, 8);
        let db = RecordDb::from_dataset(&ds).unwrap();
        let view = RecordDbDataset::new(db).unwrap();
        assert_eq!(view.len(), 15);
        assert_eq!(view.feature_dims(), vec![4]);
        assert_eq!(view.num_classes(), 3);
        for i in 0..15 {
            assert_eq!(view.sample(i).unwrap(), ds.sample(i).unwrap());
        }
        assert!(view.sample(15).is_err());
        // Minibatch assembly through the Dataset default method.
        let (x, y) = view.minibatch(&[0, 2, 4]).unwrap();
        assert_eq!(x.dims(), &[3, 4]);
        assert_eq!(y, vec![0, 2, 1]);
    }

    #[test]
    fn recorddb_dataset_rejects_empty_and_ragged() {
        assert!(RecordDbDataset::new(RecordDb::new()).is_err());
        let db = RecordDb::new();
        db.put("a", &Record { dims: vec![2], label: 0, data: vec![1.0, 2.0] });
        db.put("b", &Record { dims: vec![3], label: 0, data: vec![1.0, 2.0, 3.0] });
        assert!(matches!(RecordDbDataset::new(db), Err(DnnError::CorruptRecord(_))));
    }

    #[test]
    fn prefetcher_drop_mid_stream_does_not_hang() {
        let ds = SyntheticBlobs::new(2, 3, 8, 0.1, 5);
        let db = RecordDb::from_dataset(&ds).unwrap();
        let pf = Prefetcher::spawn(db, (0..8).map(|i| format!("{i:08}")).collect(), 2, 2, 1000);
        let _ = pf.next_batch();
        drop(pf); // must join cleanly
    }
}
