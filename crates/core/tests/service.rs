//! Integration coverage for the serving layer: `ModelCache` accounting and
//! eviction, and multi-client `CpiService` sessions agreeing byte-for-byte
//! with the one-shot `Workbench` path.

use memodel::service::proto::{execute_line, SessionSpec};
use memodel::service::{
    CpiService, ModelCache, ModelKey, Request, Response, ServiceConfig, ServiceError, TenantId,
};
use memodel::workbench::{MachineSpec, SimSource, Workbench};
use memodel::FitOptions;
use oosim::machine::MachineConfig;
use pmu::{MachineId, RunRecord, Suite};
use std::sync::Arc;

const UOPS: u64 = 4_000;
const SEED: u64 = 1234;

fn campaign_records(config: &MachineConfig) -> Vec<RunRecord> {
    SimSource::new()
        .suite(
            specgen::suites::cpu2000()
                .into_iter()
                .take(12)
                .collect::<Vec<_>>(),
        )
        .uops(UOPS)
        .seed(SEED)
        .collect_config(config)
}

/// A cheap fitted model to populate cache entries with.
fn some_model() -> Arc<memodel::InferredModel> {
    let records = campaign_records(&MachineConfig::core2());
    let arch = memodel::MicroarchParams::from_machine(&MachineConfig::core2());
    Arc::new(
        memodel::InferredModel::fit(&arch, &records, &FitOptions::quick()).expect("12 records fit"),
    )
}

fn key_with_seed(seed: u64) -> ModelKey {
    ModelKey::new(
        MachineId::Core2,
        Some(Suite::Cpu2000),
        FitOptions::quick().with_seed(seed),
    )
}

#[test]
fn cache_counts_hits_and_misses() {
    let local = TenantId::local();
    let mut cache = ModelCache::new(4);
    let key = key_with_seed(1);
    let model = some_model();
    assert!(cache.lookup(&local, &key, 1).is_none(), "cold cache misses");
    cache.insert(&local, &key, 1, model.clone());
    assert!(cache.lookup(&local, &key, 1).is_some());
    assert!(cache.lookup(&local, &key, 1).is_some());
    let stats = cache.stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.inserts, 1);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.invalidations, 0);
    // Aggregate == the single tenant's view on a single-tenant cache.
    assert_eq!(stats, cache.stats_for(&local));
}

#[test]
fn cache_evicts_least_recently_used_at_capacity() {
    let local = TenantId::local();
    let mut cache = ModelCache::new(2);
    let model = some_model();
    let (a, b, c) = (key_with_seed(1), key_with_seed(2), key_with_seed(3));
    cache.insert(&local, &a, 1, model.clone());
    cache.insert(&local, &b, 1, model.clone());
    assert_eq!(cache.len(), 2);
    // Touch `a` so `b` becomes the LRU entry, then overflow with `c`.
    assert!(cache.lookup(&local, &a, 1).is_some());
    cache.insert(&local, &c, 1, model.clone());
    assert_eq!(cache.len(), 2, "capacity is a hard bound");
    assert_eq!(cache.stats().evictions, 1);
    assert!(cache.contains(&local, &a, 1), "recently used survives");
    assert!(!cache.contains(&local, &b, 1), "LRU entry was evicted");
    assert!(cache.contains(&local, &c, 1));
    // Re-inserting an existing key replaces in place: no eviction.
    cache.insert(&local, &c, 1, model);
    assert_eq!(cache.stats().evictions, 1);
    assert_eq!(cache.len(), 2);
}

#[test]
fn cache_invalidates_on_generation_change() {
    let local = TenantId::local();
    let mut cache = ModelCache::new(4);
    let key = key_with_seed(1);
    cache.insert(&local, &key, 1, some_model());
    assert!(cache.lookup(&local, &key, 1).is_some());
    // A new counter batch bumped the machine's generation: the cached
    // model is stale and must not be served.
    assert!(cache.lookup(&local, &key, 2).is_none());
    let stats = cache.stats();
    assert_eq!(stats.invalidations, 1);
    assert_eq!(stats.misses, 1);
    assert!(cache.is_empty(), "stale entry was dropped");
}

#[test]
fn cache_insert_keeps_newer_generation() {
    let local = TenantId::local();
    let mut cache = ModelCache::new(2);
    let key = key_with_seed(1);
    let model = some_model();
    cache.insert(&local, &key, 2, model.clone());
    // A straggler fit from an older snapshot must not clobber the
    // fresher entry.
    cache.insert(&local, &key, 1, model);
    assert!(cache.contains(&local, &key, 2), "newer entry survives");
    assert!(!cache.contains(&local, &key, 1));
    // The discarded stale insert counted nothing: exactly one insert
    // (the old insert-then-adjust code tallied both).
    assert_eq!(cache.stats().inserts, 1);
}

#[test]
fn cache_quota_is_per_tenant_and_flooding_cannot_cross_it() {
    let alpha = TenantId::new("alpha").unwrap();
    let beta = TenantId::new("beta").unwrap();
    let mut cache = ModelCache::new(2);
    let model = some_model();
    // Alpha fills its quota.
    cache.insert(&alpha, &key_with_seed(1), 1, model.clone());
    cache.insert(&alpha, &key_with_seed(2), 1, model.clone());
    // Beta floods far past the quota: only beta's own entries rotate.
    for seed in 10..20 {
        cache.insert(&beta, &key_with_seed(seed), 1, model.clone());
    }
    assert_eq!(cache.len_for(&alpha), 2, "alpha lost nothing");
    assert_eq!(cache.len_for(&beta), 2, "beta is clamped to its quota");
    assert!(cache.contains(&alpha, &key_with_seed(1), 1));
    assert!(cache.contains(&alpha, &key_with_seed(2), 1));
    assert_eq!(cache.stats_for(&alpha).evictions, 0);
    assert_eq!(cache.stats_for(&beta).evictions, 8);
    // The same key cached by both tenants is two distinct entries.
    cache.insert(&alpha, &key_with_seed(19), 1, model);
    assert!(cache.contains(&alpha, &key_with_seed(19), 1));
    assert!(cache.contains(&beta, &key_with_seed(19), 1));
    // And lookups never cross tenants.
    assert!(cache.lookup(&alpha, &key_with_seed(10), 1).is_none());
    assert_eq!(cache.stats_for(&alpha).misses, 1);
    assert_eq!(cache.stats_for(&beta).misses, 0);
}

/// The `promote_warm` accounting footgun (fixed): a warm promotion racing
/// a fresher same-key insert after a generation bump must keep the
/// counters exact — the promotion's store is discarded as stale, but the
/// lookup-miss it reclassifies still becomes exactly one warm hit, never
/// two, and `hits + misses` always equals total lookups.
#[test]
fn warm_promotion_racing_a_fresher_insert_counts_exactly_once() {
    let local = TenantId::local();
    let mut cache = ModelCache::new(2);
    let key = key_with_seed(1);
    let model = some_model();
    // A worker misses at generation 2 (on its way to a warm disk load).
    assert!(cache.lookup(&local, &key, 2).is_none());
    // Meanwhile another worker fits and inserts at generation 3 (a batch
    // landed in between).
    cache.insert(&local, &key, 3, model.clone());
    // The warm load finishes and promotes its older-generation model.
    cache.promote_warm(&local, &key, 2, model.clone());
    let stats = cache.stats_for(&local);
    assert_eq!(stats.hits, 1, "the reclassified miss, once");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.warm_loads, 1);
    assert_eq!(stats.inserts, 1, "the stale promotion stored nothing");
    assert_eq!(stats.hits + stats.misses, 1, "lookups balance");
    // The fresher model survived the stale promotion.
    assert!(cache.contains(&local, &key, 3));
    assert!(!cache.contains(&local, &key, 2));

    // The quota path: promotions evict like inserts, within the tenant.
    cache.insert(&local, &key_with_seed(2), 1, model.clone());
    assert!(cache.lookup(&local, &key_with_seed(3), 1).is_none());
    cache.promote_warm(&local, &key_with_seed(3), 1, model);
    let stats = cache.stats_for(&local);
    assert_eq!(cache.len_for(&local), 2, "quota still holds");
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.warm_loads, 2);
    assert_eq!(
        stats.hits + stats.misses,
        2,
        "two lookups total, every one accounted"
    );
}

#[test]
fn service_ingestion_invalidates_cached_models() {
    let machine = MachineConfig::core2();
    let service = CpiService::start(ServiceConfig::new().with_workers(2));
    let client = service.client();
    client
        .register(MachineSpec::from(&machine))
        .expect("register");
    client.ingest(campaign_records(&machine)).expect("ingest");

    let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
    assert!(!client.fit(key.clone()).expect("first fit").cached);
    assert!(client.fit(key.clone()).expect("repeat").cached);

    // New batch arrives: next fit must retrain on all 24 records.
    let more = SimSource::new()
        .suite(
            specgen::suites::cpu2000()
                .into_iter()
                .skip(12)
                .take(12)
                .collect::<Vec<_>>(),
        )
        .uops(UOPS)
        .seed(SEED)
        .collect_config(&machine);
    client.ingest(more).expect("second batch");
    let refit = client.fit(key).expect("refit");
    assert!(!refit.cached);
    assert_eq!(refit.records, 24);

    let stats = service.shutdown();
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.invalidations, 1);
    assert_eq!(stats.fits, 2);
    assert_eq!(stats.ingested_records, 24);
}

#[test]
fn concurrent_clients_share_one_fit_and_match_workbench() {
    const CLIENTS: usize = 6;
    let machine = MachineConfig::core2();

    // Reference: the one-shot sequential Workbench under the same seed.
    let reference = Workbench::new()
        .machine(machine.clone())
        .source(
            SimSource::new()
                .suite(
                    specgen::suites::cpu2000()
                        .into_iter()
                        .take(12)
                        .collect::<Vec<_>>(),
                )
                .uops(UOPS)
                .seed(SEED),
        )
        .fit_options(FitOptions::quick())
        .parallel(false)
        .collect()
        .expect("collect")
        .fit()
        .expect("fit");
    let reference_csv = reference
        .group(MachineId::Core2, Suite::Cpu2000)
        .expect("group")
        .stacks_csv();

    // N concurrent clients hammer one warm service with the same key.
    let service = CpiService::start(ServiceConfig::new().with_workers(4));
    let seed_client = service.client();
    seed_client
        .register(MachineSpec::from(&machine))
        .expect("register");
    seed_client
        .ingest(campaign_records(&machine))
        .expect("ingest");

    let key = ModelKey::new(MachineId::Core2, Some(Suite::Cpu2000), FitOptions::quick());
    let outputs: Vec<(bool, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = service.client();
                let key = key.clone();
                scope.spawn(move || {
                    let group = client.group(key).expect("group");
                    (client.stats().expect("stats").fits > 0, group.stacks_csv())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    for (_, csv) in &outputs {
        assert_eq!(
            csv, &reference_csv,
            "every concurrent client must see byte-identical stacks"
        );
    }
    let stats = service.shutdown();
    assert_eq!(
        stats.fits, 1,
        "one machine on one shard: the regression runs exactly once"
    );
    assert_eq!(stats.cache.hits as usize, CLIENTS - 1);
    assert_eq!(stats.cache.misses, 1);
}

#[test]
fn workbench_fit_is_served_through_the_service_path() {
    // Two machines, both suites sliced: the one-shot path and a manual
    // service session must agree group for group.
    let suite: Vec<_> = specgen::suites::cpu2000().into_iter().take(12).collect();
    let source = SimSource::new().suite(suite).uops(UOPS).seed(SEED);
    let fitted = Workbench::new()
        .machine(MachineConfig::pentium4())
        .machine(MachineConfig::core2())
        .source(source.clone())
        .fit_options(FitOptions::quick())
        .collect()
        .expect("collect")
        .fit()
        .expect("fit");

    let service = CpiService::start(ServiceConfig::new());
    let client = service.client();
    for config in [MachineConfig::pentium4(), MachineConfig::core2()] {
        let records = source.collect_config(&config);
        client
            .register(MachineSpec::from(config))
            .expect("register");
        client.ingest(records).expect("ingest");
    }
    for group in fitted.groups() {
        let served = client
            .group(ModelKey::new(
                group.machine,
                group.suite,
                FitOptions::quick(),
            ))
            .expect("served group");
        assert_eq!(served.model.params(), group.model.params());
        assert_eq!(served.stacks_csv(), group.stacks_csv());
    }
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Warm reads answered on the submitting thread
// ---------------------------------------------------------------------------

/// A running service whose local tenant holds the 12-record Core 2
/// campaign.
fn core2_service(config: ServiceConfig) -> (CpiService, memodel::service::CpiClient) {
    let machine = MachineConfig::core2();
    let service = CpiService::start(config);
    let client = service.client();
    client
        .register(MachineSpec::from(&machine))
        .expect("register");
    client.ingest(campaign_records(&machine)).expect("ingest");
    (service, client)
}

/// Runs protocol lines through one session and returns the transcript
/// (a `binstack` frame's bytes read lossily).
fn session_transcript(client: &memodel::service::CpiClient, lines: &[&str]) -> String {
    let mut session = SessionSpec::open(client.clone(), FitOptions::quick()).session();
    let mut out = Vec::new();
    for line in lines {
        execute_line(&mut session, line, &mut out).expect("in-memory transport");
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The accounting of cache hits answered on the session's thread is the
/// worker's to the digit: this whole `stats` line is what the code
/// printed when every read still went through a shard worker.
#[test]
fn warm_reads_keep_the_stats_line_byte_exact() {
    let (service, client) = core2_service(ServiceConfig::new().with_workers(2));
    let transcript = session_transcript(
        &client,
        &[
            "fit core2 cpu2000",
            "fit core2 cpu2000",
            "stack core2 cpu2000",
            "binstack core2 cpu2000",
            "predict core2 cpu2000",
            "stats",
        ],
    );
    let stats = transcript
        .lines()
        .find(|l| l.starts_with("stats: "))
        .expect("a stats line");
    assert_eq!(
        stats,
        "stats: requests 8 fits 1 hits 4 misses 1 warm 0 evictions 0 invalidations 0 \
         records 12 workers 2 tenant local fit evals 19947"
    );
    assert_eq!(transcript.matches("cache: miss").count(), 1, "{transcript}");
    assert_eq!(transcript.matches("cache: hit").count(), 1, "{transcript}");
    service.shutdown();
}

/// A hit answered on the calling thread refreshes LRU recency: with two
/// slots, fit A, fit B, read A, then fit C evicts B — not A.
#[test]
fn an_inline_hit_refreshes_lru_recency() {
    let (service, client) =
        core2_service(ServiceConfig::new().with_workers(2).with_cache_capacity(2));
    let (a, b, c) = (key_with_seed(1), key_with_seed(2), key_with_seed(3));
    assert!(!client.fit(a.clone()).expect("fit A").cached);
    assert!(!client.fit(b.clone()).expect("fit B").cached);
    let (report, stacks) = client.stacks(a.clone()).expect("stack A");
    assert!(report.cached);
    assert_eq!(stacks.len(), 12);
    assert!(!client.fit(c).expect("fit C").cached);
    assert!(client.fit(a).expect("A survives").cached, "A was evicted");
    assert!(!client.fit(b).expect("B refits").cached, "B survived");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.fits, 4);
    assert_eq!(stats.cache.evictions, 2);
    service.shutdown();
}

/// A read that misses goes to its shard, fits exactly once, and streams
/// byte-identical stacks to the hit that follows it — also after new
/// records retire the cached model.
#[test]
fn a_miss_falls_through_and_fits_exactly_once() {
    let (service, client) = core2_service(ServiceConfig::new().with_workers(2));
    let key = key_with_seed(7);
    let render = |stacks: &[(String, memodel::CpiStack)]| -> Vec<String> {
        stacks.iter().map(|(b, s)| format!("{b} {s}")).collect()
    };
    let (cold, cold_stacks) = client.stacks(key.clone()).expect("cold stacks");
    assert!(!cold.cached);
    assert_eq!(client.stats().expect("stats").fits, 1);
    let (warm, warm_stacks) = client.stacks(key.clone()).expect("warm stacks");
    assert!(warm.cached);
    assert_eq!(render(&warm_stacks), render(&cold_stacks));
    assert_eq!(warm.generation, cold.generation);

    // A new batch bumps the generation: the next read misses once.
    let machine = MachineConfig::core2();
    let more = SimSource::new()
        .suite(
            specgen::suites::cpu2000()
                .into_iter()
                .skip(12)
                .take(4)
                .collect(),
        )
        .uops(UOPS)
        .seed(SEED)
        .collect_config(&machine);
    client.ingest(more).expect("second batch");
    let (refit, refit_stacks) = client.stacks(key.clone()).expect("refit stacks");
    assert!(!refit.cached);
    assert_eq!(refit_stacks.len(), 16);
    let (again, again_stacks) = client.stacks(key).expect("warm again");
    assert!(again.cached);
    assert_eq!(render(&again_stacks), render(&refit_stacks));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.fits, 2, "each generation fits exactly once");
    assert_eq!((stats.cache.hits, stats.cache.misses), (2, 2));
    assert_eq!(stats.cache.invalidations, 1);
    service.shutdown();
}

/// A read the cache could answer still honours shutdown.
#[test]
fn a_cached_read_after_shutdown_reports_stopped() {
    let (service, client) = core2_service(ServiceConfig::new());
    let key = key_with_seed(1);
    client.fit(key.clone()).expect("fit");
    assert!(client.fit(key.clone()).expect("warm").cached);
    service.shutdown();
    for request in [
        Request::Fit(key.clone()),
        Request::Stacks(key.clone()),
        Request::Group(key.clone()),
        Request::Predictions(key.clone()),
    ] {
        let replies: Vec<Response> = client.submit(request).collect();
        assert!(
            matches!(replies.as_slice(), [Response::Error(ServiceError::Stopped)]),
            "{replies:?}"
        );
    }
}

/// One tenant's cached model is invisible to another tenant's reads:
/// the second tenant misses, fits its own copy, and its counters show
/// exactly that.
#[test]
fn another_tenants_cached_model_is_invisible_to_inline_reads() {
    let (service, alpha) = core2_service(ServiceConfig::new().with_workers(2));
    let key = key_with_seed(1);
    assert!(!alpha.fit(key.clone()).expect("alpha fits").cached);
    assert!(alpha.stacks(key.clone()).expect("alpha warm").0.cached);

    let beta = service.client_for(TenantId::new("beta").expect("tenant name"));
    assert!(matches!(
        beta.stacks(key.clone()),
        Err(ServiceError::NotRegistered { .. })
    ));
    let machine = MachineConfig::core2();
    beta.register(MachineSpec::from(&machine))
        .expect("register");
    beta.ingest(campaign_records(&machine)).expect("ingest");
    let (report, _) = beta.stacks(key).expect("beta stacks");
    assert!(!report.cached, "beta served alpha's model");
    let stats = beta.stats().expect("beta stats");
    assert_eq!(stats.fits, 1);
    assert_eq!((stats.cache.hits, stats.cache.misses), (0, 1));
    assert_eq!(stats.requests, 5, "stacks ×2, register, ingest, stats");
    service.shutdown();
}
