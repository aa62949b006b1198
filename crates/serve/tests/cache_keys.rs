//! The keys of one kernel as literals. A change to any field a key
//! folds — the key version, the compile options' encoding, the scheduler
//! constants, the GPU model — moves them, and with them the artifacts'
//! cache entries and their ring placement.

use polyject_gpusim::GpuModel;
use polyject_serve::{cache_key, tuned_key, HashRing};

#[test]
fn running_example_keys_are_pinned() {
    let src = include_str!("../../../examples/running_example.pj");
    let canon = polyject_front::canonical_pj(src).unwrap();
    let v100 = GpuModel::v100();
    let key = cache_key(&canon, "infl", &v100);
    assert_eq!(key, "6e7b00b3f326063c");
    assert_eq!(tuned_key(&canon, "infl", &v100), "d5d29080e2b76ffe");
    let shards: Vec<String> = (0..3).map(|i| format!("shard-{i}")).collect();
    assert_eq!(HashRing::new(&shards).owner(&key), Some(1));
}
