//! Persisted tuned configurations: the serve-side home of the
//! `crates/tune` autotuner.
//!
//! A finished search's [`TunedConfig`] (winning knob point and provenance)
//! is persisted under its own entry kind ([`TUNED_KIND`]) at [`tuned_key`],
//! the compile key material under another domain tag, so a tuning found
//! once ([`tune_cached`]) applies on every later compile of that kernel by
//! any client or daemon sharing the cache directory. Floats are stored as
//! IEEE-754 bit patterns, so a decoded config is bit-identical.

use crate::hash::{f64_bits_hex, Fnv64};
use crate::json::Json;
use crate::service::{cache_key, config_by_name, CompileService};
use polyject_codegen::CompileOptions;
use polyject_core::Budget;
use polyject_gpusim::GpuModel;
use polyject_tune::{beam_search, SerialRunner, TuneOptions, TuneRequest, TunedConfig};

/// Cache entry kind of persisted tuned configurations.
pub const TUNED_KIND: &str = "tuned-config";

/// Payload format version, folded into the key and the payload; bump it
/// when the encoding or the knob space changes meaning. Version 3: the
/// point is its [`CompileOptions::canonical_key`] string.
pub const TUNED_FORMAT_VERSION: u64 = 3;

/// The cache key a kernel's tuned configuration lives under: the compile
/// key re-hashed beneath its own domain tag, so the two never collide
/// and any key-material change moves both.
pub fn tuned_key(canonical_pj: &str, config: &str, gpu: &GpuModel) -> String {
    tuned_key_of(&cache_key(canonical_pj, config, gpu))
}

/// [`tuned_key`] from the kernel's default-options [`cache_key`], for a
/// caller that has already computed it.
pub(crate) fn tuned_key_of(compile_key: &str) -> String {
    let mut h = Fnv64::new();
    h.write_field("polyject-tuned");
    h.write_field(&TUNED_FORMAT_VERSION.to_string());
    h.write_field(compile_key);
    h.hex()
}

fn f64_from_hex(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bit pattern {s:?}"))
}

fn u64_from_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|_| format!("bad u64 hex {s:?}"))
}

/// Encodes a tuned configuration as a cache payload: the winning point
/// as its [`CompileOptions::canonical_key`] beside the search's
/// provenance. Inverse of [`decode_tuned`].
pub fn encode_tuned(cfg: &TunedConfig) -> Json {
    Json::obj(vec![
        ("version", Json::Num(TUNED_FORMAT_VERSION as f64)),
        ("point", Json::Str(cfg.point.canonical_key())),
        ("seed", Json::Str(format!("{:016x}", cfg.seed))),
        ("rounds", Json::Num(cfg.rounds as f64)),
        ("evaluated", Json::Num(cfg.evaluated as f64)),
        ("default_time", Json::Str(f64_bits_hex(cfg.default_time))),
        ("tuned_time", Json::Str(f64_bits_hex(cfg.tuned_time))),
        ("log_digest", Json::Str(format!("{:016x}", cfg.log_digest))),
    ])
}

/// Decodes a persisted tuned configuration. Inverse of [`encode_tuned`].
///
/// # Errors
///
/// Unknown version, missing fields, a malformed point key, and malformed
/// bit patterns, as strings — callers treat a decode failure as a cache
/// miss.
pub fn decode_tuned(j: &Json) -> Result<TunedConfig, String> {
    let version = j.num_field("version")? as u64;
    if version != TUNED_FORMAT_VERSION {
        return Err(format!(
            "tuned-config version {version} (expected {TUNED_FORMAT_VERSION})"
        ));
    }
    Ok(TunedConfig::new(
        CompileOptions::from_canonical_key(j.str_field("point")?)?,
        u64_from_hex(j.str_field("seed")?)?,
        j.num_field("rounds")? as usize,
        j.num_field("evaluated")? as usize,
        f64_from_hex(j.str_field("default_time")?)?,
        f64_from_hex(j.str_field("tuned_time")?)?,
        u64_from_hex(j.str_field("log_digest")?)?,
    ))
}

/// The tuned configuration persisted at `key`, if a decodable one is
/// there (anything else is a miss the next complete search overwrites).
/// Read as an optional entry: an absent one is no cache miss.
pub(crate) fn load_tuned(svc: &CompileService, key: &str) -> Option<TunedConfig> {
    svc.read_cache(key, true)
        .filter(|(kind, _)| kind == TUNED_KIND)
        .and_then(|(_, payload)| decode_tuned(&payload).ok())
}

/// The outcome of tuning one kernel.
#[derive(Clone, Debug)]
pub struct TuneReport {
    /// Cache key the configuration lives under.
    pub key: String,
    /// The winning configuration and its provenance.
    pub tuned: TunedConfig,
    /// Whether the config was replayed from the cache, with zero search.
    pub cached: bool,
}

/// Tunes one kernel through the service's cache: a persisted
/// [`TunedConfig`] is returned at once; otherwise the beam search runs
/// unbudgeted on the calling thread, and a complete one is persisted.
///
/// # Errors
///
/// Unknown config, parse failures, and scheduling errors from the
/// default point's compile, as strings.
pub fn tune_cached(
    svc: &CompileService,
    src: &str,
    config_name: &str,
    opts: &TuneOptions,
) -> Result<TuneReport, String> {
    let config = config_by_name(config_name)?;
    let canonical = polyject_front::canonical_pj(src)?;
    let key = tuned_key(&canonical, config.name(), svc.gpu());
    if let Some(tuned) = load_tuned(svc, &key) {
        return Ok(TuneReport {
            key,
            tuned,
            cached: true,
        });
    }
    let req = TuneRequest {
        kernel: polyject_front::parse(&canonical).map_err(|e| e.to_string())?,
        config,
        gpu: svc.gpu().clone(),
        budget: Budget::unlimited(),
    };
    let outcome = beam_search(&req, opts, &SerialRunner).map_err(|e| e.to_string())?;
    // A search that stopped early would not replay as itself.
    if outcome.complete {
        if let Some(Err(e)) =
            svc.with_cache(|c| c.put(&key, TUNED_KIND, &encode_tuned(&outcome.tuned)))
        {
            eprintln!("[tune] cache write for {key} failed: {e}");
        }
    }
    Ok(TuneReport {
        key,
        tuned: outcome.tuned,
        cached: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DiskCache;
    use polyject_codegen::{MappingOptions, TilingOptions};
    use polyject_core::InfluenceOptions;
    use polyject_tune::log_digest;

    fn sample_config() -> TunedConfig {
        TunedConfig::new(
            CompileOptions {
                influence: InfluenceOptions {
                    weights: [0.5, 3.0, 1.0, 8.0, 1.0],
                    thread_limit: 512,
                    max_scenarios: 4,
                    vector_widths: vec![4],
                    fusion_variants: true,
                    relaxed_variants: false,
                },
                tiling: Some(TilingOptions {
                    tile_size: 32,
                    min_extent: 64,
                    max_tiled_loops: 2,
                }),
                mapping: MappingOptions {
                    max_threads: 256,
                    max_thread_axes: 2,
                    max_block_axes: 3,
                },
            },
            0x5eed_1e55_ca11_ab1e,
            3,
            23,
            9.64951e-6,
            7.1123e-6,
            log_digest(&[]),
        )
    }

    /// The encoded [`sample_config`] with one field rewritten.
    fn sample_payload_with(field: &str, value: Json) -> Json {
        let mut j = encode_tuned(&sample_config());
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == field {
                    *v = value.clone();
                }
            }
        }
        j
    }

    #[test]
    fn tuned_config_roundtrips_bit_identically() {
        let cfg = sample_config();
        let decoded = decode_tuned(&encode_tuned(&cfg)).unwrap();
        assert_eq!(decoded, cfg);
        // Exact float bits survive, not just approximate values.
        assert_eq!(decoded.default_time.to_bits(), cfg.default_time.to_bits());
        // The untiled variant round-trips too.
        let mut untiled = cfg;
        untiled.point.tiling = None;
        assert_eq!(decode_tuned(&encode_tuned(&untiled)).unwrap(), untiled);
    }

    /// A version-2 payload as that format wrote it: the point as a nested
    /// object, field by field.
    const V2_PAYLOAD: &str = r#"{"version":2,"point":{"weights":["3fe0000000000000",
        "4008000000000000","3ff0000000000000","4020000000000000","3ff0000000000000"],
        "thread_limit":512,"max_scenarios":4,"vector_widths":[4],"fusion_variants":true,
        "relaxed_variants":false,"tiling":{"tile_size":32,"min_extent":64,"max_tiled_loops":2},
        "mapping":{"max_threads":256,"max_thread_axes":2,"max_block_axes":3}},
        "seed":"5eed1e55ca11ab1e","rounds":3,"evaluated":23,"default_time":"3ee43c8a8e509da2",
        "tuned_time":"3eddd4c62336fd1c","log_digest":"cbf29ce484222325"}"#;

    #[test]
    fn decode_rejects_bad_payloads() {
        assert!(decode_tuned(&Json::Null).is_err());
        // A wrong version — a future one, or the v1 and v2 this format
        // replaced — is a miss, not a panic.
        for version in [99.0, 1.0, 2.0] {
            let j = sample_payload_with("version", Json::Num(version));
            assert!(decode_tuned(&j).unwrap_err().contains("version"));
        }
        let v2 = Json::parse(V2_PAYLOAD).unwrap();
        assert!(decode_tuned(&v2).unwrap_err().contains("version"));
        // A current version around a point that is no canonical key.
        let j = sample_payload_with("point", Json::Str("w=zz".into()));
        assert!(decode_tuned(&j).unwrap_err().contains("canonical"));
    }

    #[test]
    fn tuned_key_distinct_from_compile_key() {
        let gpu = GpuModel::v100();
        let canon = "kernel k\n";
        assert_ne!(
            tuned_key(canon, "infl", &gpu),
            cache_key(canon, "infl", &gpu)
        );
        assert_ne!(
            tuned_key(canon, "infl", &gpu),
            tuned_key(canon, "isl", &gpu)
        );
    }

    const SRC: &str = "
kernel axpy
param N = 64
tensor X[N]: f32
tensor Y[N]: f32
stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]
";

    /// A fresh service over an empty cache directory.
    fn fresh_service(tag: &str) -> (CompileService, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("pj-tuned-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open_default(&dir).unwrap();
        (CompileService::new(Some(cache), GpuModel::v100()), dir)
    }

    /// A search small enough for unit tests.
    fn small() -> TuneOptions {
        TuneOptions {
            rounds: 1,
            initial_samples: 2,
            evals_per_round: 2,
            ..TuneOptions::default()
        }
    }

    #[test]
    fn tune_cached_persists_and_replays_byte_identically() {
        let (svc, dir) = fresh_service("replay");
        let cold = tune_cached(&svc, SRC, "infl", &small()).unwrap();
        assert!(!cold.cached);
        let warm = tune_cached(&svc, SRC, "infl", &small()).unwrap();
        assert!(warm.cached, "second run replays with zero search");
        assert_eq!(warm.tuned, cold.tuned);
        assert_eq!(warm.key, cold.key);
        assert!(tune_cached(&svc, "not a kernel", "infl", &small()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_tuned_entry_is_no_cache_miss_and_a_foreign_one_is_found() {
        let (svc, dir) = fresh_service("probe");
        for _ in 0..3 {
            svc.serve(SRC, "infl").unwrap();
        }
        let misses = svc.with_cache(|c| c.stats().misses).unwrap();
        assert_eq!(misses, 1, "one fresh compile, two hits, no tuned probe");
        // Another process sharing the directory tunes the kernel: this
        // one's index has never seen that entry, and still finds it.
        let other = DiskCache::open_default(&dir).unwrap();
        let other = CompileService::new(Some(other), GpuModel::v100());
        tune_cached(&other, SRC, "infl", &small()).unwrap();
        svc.serve(SRC, "infl").unwrap();
        assert_eq!(svc.governance().tuned_applied, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_tuning_applies_on_later_serves() {
        let (svc, dir) = fresh_service("apply");
        // Before tuning: serves compile under the defaults.
        let (_, how) = svc.serve(SRC, "infl").unwrap();
        assert_eq!(how, crate::service::Served::Fresh);
        assert_eq!(svc.governance().tuned_applied, 0);
        // Tune (persists a TunedConfig), then serve again: the request
        // is redirected to the tuned options and counted.
        let report = tune_cached(&svc, SRC, "infl", &small()).unwrap();
        assert!(!report.cached);
        let (reply, _) = svc.serve(SRC, "infl").unwrap();
        assert_eq!(svc.governance().tuned_applied, 1);
        // The tuned entry is keyed by the tuned options; a second serve
        // hits it.
        let (_, how) = svc.serve(SRC, "infl").unwrap();
        assert_eq!(how, crate::service::Served::Hit);
        assert_eq!(svc.governance().tuned_applied, 2);
        assert_eq!(
            reply.key,
            crate::service::cache_key_with_options(
                &reply.canonical_pj,
                "infl",
                svc.gpu(),
                &report.tuned.to_compile_options()
            )
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_payloads_are_a_miss_and_are_overwritten() {
        let (svc, dir) = fresh_service("old");
        let canonical = polyject_front::canonical_pj(SRC).unwrap();
        let key = tuned_key(&canonical, "infl", svc.gpu());
        let v1 = sample_payload_with("version", Json::Num(1.0));
        let v2 = Json::parse(V2_PAYLOAD).unwrap();
        for old in [v1, v2] {
            svc.with_cache(|c| c.put(&key, TUNED_KIND, &old))
                .unwrap()
                .unwrap();
            assert_eq!(load_tuned(&svc, &key), None, "an old entry is never served");

            let report = tune_cached(&svc, SRC, "infl", &small()).unwrap();
            assert!(!report.cached, "an old-format entry forces a fresh search");
            assert_eq!(report.key, key);
            let (kind, payload) = svc.with_cache(|c| c.get(&key)).unwrap().unwrap();
            assert_eq!(kind, TUNED_KIND);
            assert_eq!(decode_tuned(&payload).unwrap(), report.tuned);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
