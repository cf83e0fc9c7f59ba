//! Workload inputs, all derived from `--seed`: planted-block data, pools of
//! novel labelled query points, and the models each workload serves.

use hics_core::{FitBuilder, FitObserver, HicsParams};
use hics_data::manifest::{PartitionKind, ShardAggregation, ShardEntry, ShardManifest};
use hics_data::model::{
    AggregationKind, HicsModel, ModelIndex, ModelSubspace, NormKind, ScorerKind, ScorerSpec,
};
use hics_data::{Dataset, LabeledDataset, SyntheticConfig};
use hics_outlier::{IndexKind, SubspaceView, VpTree};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// LOF neighbourhood size everywhere (the paper default).
pub const K: u32 = 10;

/// Planted-block synthetic data: `n × d`, every correlated block
/// `width.0..=width.1` attributes wide, labels marking planted outliers.
/// A fixed width keeps the block layout, and so the work a fit or a query
/// does, the same shape for every seed. `clusters` fixes the Gaussian
/// clusters per block; `None` keeps the generator's 2–4, drawn per block
/// and seed.
pub fn planted(
    n: usize,
    d: usize,
    width: (usize, usize),
    clusters: Option<usize>,
    seed: u64,
) -> LabeledDataset {
    let mut cfg = SyntheticConfig::new(n, d).with_seed(seed);
    cfg.subspace_dims = width;
    if let Some(c) = clusters {
        cfg.clusters_per_subspace = (c, c);
    }
    cfg.generate()
}

/// A labelled pool of `size` novel query points: every planted outlier (up
/// to half the pool) and inliers drawn from the remaining rows, each nudged
/// off its training row so lookups miss the in-sample shortcut and take the
/// full neighbour search, as production queries do. Shuffled so both
/// classes spread over any prefix.
pub fn query_pool(
    data: &Dataset,
    labels: &[bool],
    size: usize,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_9001);
    let mut outliers: Vec<usize> = (0..data.n()).filter(|&i| labels[i]).collect();
    outliers.truncate(size / 2);
    let mut inliers: Vec<usize> = (0..data.n()).filter(|&i| !labels[i]).collect();
    inliers.shuffle(&mut rng);
    inliers.truncate(size - outliers.len());
    let mut rows: Vec<usize> = outliers.into_iter().chain(inliers).collect();
    rows.shuffle(&mut rng);
    let points = rows
        .iter()
        .enumerate()
        .map(|(q, &i)| {
            data.row(i)
                .iter()
                .enumerate()
                .map(|(j, v)| v + 0.001 + (q + j) as f64 * 1e-5)
                .collect()
        })
        .collect();
    (points, rows.iter().map(|&i| labels[i]).collect())
}

/// The fixed-subspace LOF model of the point-serving workloads: the given
/// subspaces, VP-trees stored in the artifact.
pub fn fixed_model(data: Dataset, subspaces: &[Vec<usize>]) -> HicsModel {
    let subspaces: Vec<ModelSubspace> = subspaces
        .iter()
        .map(|dims| ModelSubspace {
            dims: dims.clone(),
            contrast: 1.0,
        })
        .collect();
    let trees = subspaces
        .iter()
        .map(|s| VpTree::build(&SubspaceView::new(&data, &s.dims)).into_data())
        .collect();
    let norm = vec![hics_data::NormParam::IDENTITY; data.d()];
    let mut model = HicsModel::new(
        data,
        NormKind::None,
        norm,
        subspaces,
        ScorerSpec {
            kind: ScorerKind::Lof,
            k: K,
        },
        AggregationKind::Average,
    );
    model.set_index(Some(ModelIndex { trees }));
    model
}

/// Saves `model` at `path` and writes its hoods sidecar, as `hics fit`
/// does.
pub fn save_with_sidecar(model: &HicsModel, path: &Path, threads: usize) {
    model.save(path).expect("save artifact");
    hics_outlier::write_hoods_sidecar(path, threads).expect("write hoods sidecar");
}

/// Wall times of one paper-default fit, phase by phase.
#[derive(Debug, Clone)]
pub struct FitRun {
    pub total: Duration,
    pub save: Duration,
    pub precompute: Duration,
    /// The attributes of every subspace the fit kept.
    pub subspaces: Vec<Vec<usize>>,
}

/// The `hics fit --index vptree` pipeline on `data`: paper defaults
/// (Welch, M = 50, α = 0.1, top-k 100, LOF k = 10), no normalisation,
/// then `HicsModel::save` and the hoods sidecar.
pub fn paper_fit(
    data: &Dataset,
    seed: u64,
    threads: usize,
    observer: Option<Arc<dyn FitObserver>>,
    path: &Path,
) -> FitRun {
    let mut params = HicsParams::paper_defaults();
    params.search.seed = seed;
    params.search.max_threads = threads;
    let mut builder = FitBuilder::new(params)
        .scorer(ScorerSpec {
            kind: ScorerKind::Lof,
            k: K,
        })
        .index(IndexKind::VpTree);
    if let Some(observer) = observer {
        builder = builder.observe(observer);
    }
    let t = Instant::now();
    let model = builder.fit(data);
    let s = Instant::now();
    model.save(path).expect("save artifact");
    let save = s.elapsed();
    let p = Instant::now();
    hics_outlier::write_hoods_sidecar(path, threads).expect("write hoods sidecar");
    let precompute = p.elapsed();
    FitRun {
        total: t.elapsed(),
        save,
        precompute,
        subspaces: model.subspaces().iter().map(|s| s.dims.clone()).collect(),
    }
}

/// Writes a `shards`-way contiguous split of `data` as fixed-subspace
/// shard artifacts with sidecars plus a mean-fold manifest at `manifest`.
/// Returns the shard artifact paths.
pub fn sharded_model(
    data: &Dataset,
    subspaces: &[Vec<usize>],
    shards: usize,
    manifest: &Path,
    threads: usize,
) -> Vec<std::path::PathBuf> {
    let rows = PartitionKind::Contiguous.assign(data.n() as u64, shards);
    let dir = manifest.parent().expect("manifest has a directory");
    let stem = manifest
        .file_name()
        .expect("manifest file name")
        .to_string_lossy()
        .into_owned();
    let mut entries = Vec::with_capacity(shards);
    let mut paths = Vec::with_capacity(shards);
    for (k, ids) in rows.iter().enumerate() {
        let cols = (0..data.d())
            .map(|j| ids.iter().map(|&i| data.col(j)[i as usize]).collect())
            .collect();
        let file = format!("{stem}.shard{k}");
        let path = dir.join(&file);
        save_with_sidecar(
            &fixed_model(Dataset::from_columns(cols), subspaces),
            &path,
            threads,
        );
        entries.push(ShardEntry {
            file,
            n: ids.len() as u64,
        });
        paths.push(path);
    }
    ShardManifest {
        total_n: data.n() as u64,
        d: data.d(),
        aggregation: ShardAggregation::Mean,
        partition: PartitionKind::Contiguous,
        shards: entries,
    }
    .save(manifest)
    .expect("save manifest");
    paths
}

/// FNV-1a of a file's bytes: the identity of an artifact or sidecar.
pub fn file_checksum(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    hics_data::model::fnv1a(hics_data::model::FNV_OFFSET, &bytes)
}
