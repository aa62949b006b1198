//! The in-process daemon fleet the benchmark's serving workloads spawn,
//! plus what they push through it and read back: the Table II op stream
//! as batch items and the deterministic artifact fields of a compile
//! reply.
//!
//! The op stream deliberately keeps duplicates (the same operator class
//! recurs within and across networks) and crosses every op with all
//! three compile configs: the duplicates are what `batch_dedup_hits`
//! amortizes and the config siblings are what `batch_session_reuses`
//! amortizes.

use polyject_gpusim::GpuModel;
use polyject_serve::{run_daemon, BatchItem, Client, DaemonConfig, Endpoint, Json};
use polyject_workloads::Network;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An in-process daemon fleet on temp-dir Unix sockets.
///
/// Each shard is a real [`run_daemon`] accept loop on its own thread
/// with its own worker pool and (cold) cache directory — the same code
/// the `polyjectd` binary runs, minus the process boundary.
pub struct Fleet {
    endpoints: Vec<Endpoint>,
    handles: Vec<JoinHandle<std::io::Result<Json>>>,
    root: PathBuf,
}

impl Fleet {
    /// Spawns `shards` daemons and blocks until every one answers a ping.
    ///
    /// # Errors
    ///
    /// Socket binding failures, or a shard that never comes up.
    pub fn spawn(
        shards: usize,
        workers: usize,
        queue_bound: usize,
        tag: &str,
        gpu: &GpuModel,
    ) -> std::io::Result<Fleet> {
        let root = std::env::temp_dir().join(format!("pj-fleet-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        let mut endpoints = Vec::new();
        let mut handles = Vec::new();
        for i in 0..shards {
            let endpoint = Endpoint::Unix(root.join(format!("shard{i}.sock")));
            let config = DaemonConfig {
                endpoint: endpoint.clone(),
                workers,
                queue_bound,
                request_timeout: Duration::from_secs(600),
                cache_dir: Some(root.join(format!("cache{i}"))),
                gpu: gpu.clone(),
                ..DaemonConfig::default()
            };
            handles.push(std::thread::spawn(move || run_daemon(config)));
            endpoints.push(endpoint);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        for ep in &endpoints {
            loop {
                if Client::connect(ep)
                    .and_then(|mut c| c.ping())
                    .unwrap_or(false)
                {
                    break;
                }
                if Instant::now() > deadline {
                    return Err(std::io::Error::other(format!("shard {ep} never came up")));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        Ok(Fleet {
            endpoints,
            handles,
            root,
        })
    }

    /// The shard endpoints, in spawn order.
    pub fn endpoints(&self) -> Vec<Endpoint> {
        self.endpoints.clone()
    }

    /// Shuts every shard down gracefully and returns their final stats
    /// reports (the same shape `polyjectc stats` sees), in spawn order.
    pub fn shutdown(self) -> Vec<Json> {
        for ep in &self.endpoints {
            let _ = Client::connect(ep).and_then(|mut c| c.shutdown());
        }
        let mut reports = Vec::new();
        for h in self.handles {
            if let Ok(Ok(report)) = h.join() {
                reports.push(report);
            }
        }
        let _ = std::fs::remove_dir_all(&self.root);
        reports
    }
}

/// The Table II op stream as batch items: every network's ops in
/// evaluation order (duplicates kept) × the three compile configs.
pub fn table2_batch_items(nets: &[Network]) -> Vec<BatchItem> {
    let mut items = Vec::new();
    for net in nets {
        for op in &net.ops {
            let Ok(src) = polyject_front::emit_pj(&op.build()) else {
                continue;
            };
            for config in ["isl", "novec", "infl"] {
                items.push(BatchItem::new(&src, config));
            }
        }
    }
    items
}

/// The deterministic artifact fields of a compile reply, rendered for
/// byte comparison. Everything performance- or provenance-shaped is
/// excluded: `solver` counters depend on what the serving thread
/// compiled before, `compile_ms` is wall clock, `cached` depends on
/// arrival order, `via` on routing. What remains is exactly the
/// artifact the caller would lower to CUDA.
pub fn artifact_fields(resp: &Json) -> String {
    const KEEP: [&str; 11] = [
        "status",
        "key",
        "kernel",
        "config",
        "canonical_pj",
        "code",
        "cuda",
        "schedule",
        "schedule_tree",
        "vector_loops",
        "influenced",
    ];
    match resp {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| KEEP.contains(&k.as_str()))
                .cloned()
                .collect(),
        )
        .render(),
        other => other.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_workloads::all_networks;

    #[test]
    fn op_stream_crosses_configs_and_keeps_duplicates() {
        // The resnet pair shares operator classes, so the stream carries
        // genuine duplicates — the population in-batch dedup amortizes.
        let nets: Vec<_> = all_networks()
            .into_iter()
            .filter(|n| n.name == "ResNet50" || n.name == "ResNet101")
            .collect();
        assert_eq!(nets.len(), 2);
        let items = table2_batch_items(&nets);
        assert_eq!(items.len(), (nets[0].ops.len() + nets[1].ops.len()) * 3);
        let mut seen = std::collections::HashSet::new();
        let unique = items
            .iter()
            .filter(|it| seen.insert((it.src.clone(), it.config.clone())))
            .count();
        assert!(
            unique < items.len(),
            "expected duplicate ops in the stream ({unique} unique of {})",
            items.len()
        );
    }

    #[test]
    fn artifact_fields_ignore_performance_noise() {
        let a = Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("key", Json::Str("k".into())),
            ("compile_ms", Json::Num(1.0)),
            ("cached", Json::Bool(false)),
        ]);
        let b = Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("key", Json::Str("k".into())),
            ("compile_ms", Json::Num(99.0)),
            ("cached", Json::Bool(true)),
        ]);
        assert_eq!(artifact_fields(&a), artifact_fields(&b));
        let c = Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("key", Json::Str("other".into())),
        ]);
        assert_ne!(artifact_fields(&a), artifact_fields(&c));
    }
}
