//! Criterion micro-benchmarks: one group per experiment (E1–E20) over
//! the hot path each experiment exercises, plus substrate benches.
//! `cargo bench` runs everything; the `harness` binary produces the
//! full tables.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dacs_cluster::{
    BatchSubmitter, ClusterBuilder, DecisionBackend, HedgeConfig, QuorumMode, SchedulerConfig,
    StaticBackend,
};
use dacs_core::scenario::{
    alternating_lockdown_gate, clustered_healthcare_vo, healthcare_vo, with_shared_cas,
};
use dacs_crypto::sign::{CryptoCtx, SigningKey};
use dacs_federation::{
    issue_capability_flow, push_flow, request_flow, FlowKind, FlowNet, SizeModel,
};
use dacs_pap::SyndicationTree;
use dacs_pdp::{Binding, ConcurrentTtlCache, PdpDirectory, TtlLruCache};
use dacs_pep::{EnforceOptions, EnforceRequest};
use dacs_policy::conflict;
use dacs_policy::dsl::parse_policy;
use dacs_policy::eval::{EmptyStore, Evaluator};
use dacs_policy::policy::{CombiningAlg, Effect, Policy, PolicyId, Rule};
use dacs_policy::request::RequestContext;
use dacs_policy::target::{AttrMatch, Target};
use dacs_policy::AttributeId;
use dacs_simnet::LinkSpec;
use dacs_trust::{chain_scenario, negotiate, Strategy};
use dacs_wire::security::SecureChannel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

fn bench_substrates(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    let data = vec![0xabu8; 1024];
    g.bench_function("sha256_1k", |b| {
        b.iter(|| dacs_crypto::Sha256::digest(&data))
    });
    g.bench_function("hmac_1k", |b| {
        b.iter(|| dacs_crypto::hmac::hmac_sha256(b"key", &data))
    });
    let mut rng = StdRng::seed_from_u64(1);
    let merkle = SigningKey::generate_merkle(&mut rng, 12);
    let pk = merkle.public_key();
    let ctx = CryptoCtx::new();
    g.bench_function("merkle_sign", |b| b.iter(|| merkle.sign(&data).unwrap()));
    let sig = merkle.sign(&data).unwrap();
    g.bench_function("merkle_verify", |b| b.iter(|| ctx.verify(&pk, &data, &sig)));
    let request =
        RequestContext::basic("alice@a", "records/42", "read").with_subject_attr("role", "doctor");
    g.bench_function("codec_encode_request", |b| {
        b.iter(|| dacs_wire::codec::to_bytes(&request).unwrap())
    });
    let bytes = dacs_wire::codec::to_bytes(&request).unwrap();
    g.bench_function("codec_decode_request", |b| {
        b.iter(|| {
            let r: RequestContext = dacs_wire::codec::from_bytes(&bytes).unwrap();
            r
        })
    });
    g.bench_function("xmlish_encode_request", |b| {
        b.iter(|| dacs_wire::xmlish::encoded_len(&request).unwrap())
    });
    g.finish();
}

fn bench_e1_e2_e8_flows(c: &mut Criterion) {
    let mut g = c.benchmark_group("flows");
    g.bench_function("e1_pull_flow_cross_domain", |b| {
        let ctx = CryptoCtx::new();
        let vo = healthcare_vo(2, 8, &ctx);
        let mut fnet = FlowNet::build(&vo, 3, LinkSpec::lan(), LinkSpec::wan());
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            request_flow(
                &mut fnet,
                &vo,
                FlowKind::Pull,
                "user-1@domain-1",
                0,
                "records/1",
                "read",
                t,
                SizeModel::Compact,
            )
        })
    });
    g.bench_function("e2_capability_issue", |b| {
        let ctx = CryptoCtx::new();
        let vo = with_shared_cas(healthcare_vo(2, 8, &ctx), 3_600_000);
        let mut fnet = FlowNet::build(&vo, 3, LinkSpec::lan(), LinkSpec::wan());
        b.iter(|| {
            issue_capability_flow(
                &mut fnet,
                &vo,
                "user-1@domain-1",
                "shared/*",
                &["read".to_string()],
                "domain-0",
                0,
                SizeModel::Compact,
            )
        })
    });
    g.bench_function("e8_push_request", |b| {
        let ctx = CryptoCtx::new();
        let vo = with_shared_cas(healthcare_vo(2, 8, &ctx), 3_600_000);
        let mut fnet = FlowNet::build(&vo, 3, LinkSpec::lan(), LinkSpec::wan());
        let (cap, _) = issue_capability_flow(
            &mut fnet,
            &vo,
            "user-1@domain-1",
            "shared/*",
            &["read".to_string()],
            "domain-0",
            0,
            SizeModel::Compact,
        );
        let cap = cap.unwrap();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            push_flow(
                &mut fnet,
                &vo,
                "user-1@domain-1",
                0,
                "shared/x",
                "read",
                &cap,
                t,
                SizeModel::Compact,
            )
        })
    });
    g.finish();
}

fn bench_e3_e4_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    let policy = parse_policy(
        r#"
policy "gate" first-applicable {
  target { resource "id" ~= "records/*"; }
  rule "doctors" permit {
    target { action "id" == "read"; }
    condition and(
      is-in("doctor", attr(subject, "role")),
      lt(hour-of(attr!(env, "current-time")), 17)
    )
  }
  rule "default-deny" deny { }
}
"#,
    )
    .unwrap();
    let request = RequestContext::basic("alice", "records/42", "read")
        .with_subject_attr("role", "doctor")
        .with_env_attr(
            "current-time",
            dacs_policy::attr::AttrValue::Time(9 * 3_600_000),
        );
    let store = EmptyStore;
    g.bench_function("e3_policy_evaluation", |b| {
        b.iter(|| {
            let mut ev = Evaluator::new(&store, &request);
            ev.evaluate_policy(&policy)
        })
    });
    // One target match of the shape every quarantine policy makes:
    // a prefix pattern against a resource id under another prefix.
    g.bench_function("glob_prefix_match", |b| {
        b.iter(|| {
            dacs_policy::glob::glob_match(black_box("aux-7/*"), black_box("records/42"))
                | dacs_policy::glob::glob_match(black_box("records/*"), black_box("records/42"))
        })
    });
    // The repo benchmark's domain shape through `Pdp::decide`, not a
    // bare `Evaluator`: the lockdown gate, sixteen quarantine policies
    // whose targets do not match, the role from the PIP.
    let mut domain =
        dacs_federation::Domain::builder("q").policy(alternating_lockdown_gate("q", 0));
    for k in 0..16 {
        domain = domain.policy_dsl(&format!(
            r#"policy "aux-{k}" deny-overrides {{
                 rule "quarantine" deny {{ target {{ resource "id" ~= "aux-{k}/*"; }} }}
               }}"#
        ));
    }
    let domain = domain
        .subject_attr("user-1@q", "role", "doctor")
        .build(&CryptoCtx::new());
    let doctor = RequestContext::basic("user-1@q", "records/42", "read");
    g.bench_function("pdp_decide_17_policies", |b| {
        b.iter(|| domain.pdp.decide(black_box(&doctor), 0))
    });
    // Combining algorithm throughput (E4).
    for alg in [
        CombiningAlg::DenyOverrides,
        CombiningAlg::FirstApplicable,
        CombiningAlg::DenyUnlessPermit,
    ] {
        let mut p = Policy::new(PolicyId::new("many"), alg);
        for i in 0..64 {
            p = p.with_rule(
                Rule::new(format!("r{i}"), Effect::Permit).with_target(Target::all(vec![
                    AttrMatch::equals(AttributeId::subject("role"), format!("role-{i}")),
                ])),
            );
        }
        let req = RequestContext::basic("u", "r", "a").with_subject_attr("role", "role-63");
        g.bench_function(format!("e4_combining_{}", alg.name()), |b| {
            b.iter(|| {
                let mut ev = Evaluator::new(&store, &req);
                ev.evaluate_policy(&p)
            })
        });
    }
    g.finish();
}

fn bench_e5_syndication(c: &mut Criterion) {
    c.bench_function("e5_syndication_propagate_d3f3", |b| {
        let policy = Policy::new(PolicyId::new("p"), CombiningAlg::DenyOverrides)
            .with_rule(Rule::new("ok", Effect::Permit));
        b.iter_batched(
            || SyndicationTree::uniform("root", 3, 3),
            |mut tree| tree.propagate(policy.clone(), 0),
            BatchSize::SmallInput,
        )
    });
}

fn bench_e6_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_cache");
    g.bench_function("ttl_lru_hit", |b| {
        let mut cache: TtlLruCache<u64, u64> = TtlLruCache::new(1024, 1_000_000);
        for i in 0..1024u64 {
            cache.insert(i, i, 0);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1024;
            cache.get(&i, 1)
        })
    });
    g.bench_function("ttl_lru_insert_evict", |b| {
        let mut cache: TtlLruCache<u64, u64> = TtlLruCache::new(256, 1_000_000);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            cache.insert(i, i, 0);
        })
    });
    g.finish();
}

fn bench_e7_security(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_message_security");
    let payload = vec![0u8; 512];
    let ctx = CryptoCtx::new();
    let mut rng = StdRng::seed_from_u64(2);
    let key = Arc::new(SigningKey::generate_sim(ctx.registry(), &mut rng));
    let mut plain = SecureChannel::plain("a", ctx.clone());
    g.bench_function("wrap_plain", |b| b.iter(|| plain.wrap(&payload).unwrap()));
    let mut signed = SecureChannel::signed("a", ctx.clone(), key.clone());
    g.bench_function("wrap_signed_sim", |b| {
        b.iter(|| signed.wrap(&payload).unwrap())
    });
    let mut enc = SecureChannel::signed_encrypted("a", ctx.clone(), key.clone(), b"s", "l");
    g.bench_function("wrap_signed_encrypted_sim", |b| {
        b.iter(|| enc.wrap(&payload).unwrap())
    });
    g.finish();
}

fn bench_e9_conflicts(c: &mut Criterion) {
    c.bench_function("e9_conflict_analysis_128", |b| {
        let mut policies = Vec::new();
        for i in 0..128 {
            let effect = if i % 2 == 0 {
                Effect::Permit
            } else {
                Effect::Deny
            };
            policies.push(
                Policy::new(PolicyId::new(format!("p{i}")), CombiningAlg::DenyOverrides).with_rule(
                    Rule::new("r", effect).with_target(Target::all(vec![AttrMatch::glob(
                        AttributeId::resource("id"),
                        format!("area-{}/*", i % 16),
                    )])),
                ),
            );
        }
        b.iter(|| conflict::analyze(policies.iter()))
    });
}

fn bench_e10_e11_e12(c: &mut Criterion) {
    let mut g = c.benchmark_group("models");
    g.bench_function("e10_negotiation_depth4", |b| {
        let (client, server, goal) = chain_scenario(4, 4);
        b.iter(|| negotiate(&client, &server, &goal, Strategy::Parsimonious, 50))
    });
    g.bench_function("e11_delegation_validate_depth8", |b| {
        let mut reg = dacs_pap::DelegationRegistry::new();
        reg.add_root("root");
        let mut delegator = "root".to_string();
        for d in 0..8u32 {
            let next = format!("a{d}");
            reg.grant(&delegator, &next, "ns/*", 8 - d, 1_000_000, 0)
                .unwrap();
            delegator = next;
        }
        b.iter(|| reg.validate("a7", "ns/p", 10))
    });
    g.bench_function("e12_rbac_check_10k_users", |b| {
        let mut rbac = dacs_rbac::Rbac::new();
        for r in 0..64 {
            rbac.add_role(format!("role-{r}"));
        }
        for d in 1..6 {
            rbac.add_inheritance(&format!("role-{d}"), &format!("role-{}", d - 1))
                .unwrap();
        }
        for r in 0..64 {
            rbac.grant(
                &format!("role-{r}"),
                dacs_rbac::Permission::new("read", format!("area-{r}/*")),
            )
            .unwrap();
        }
        for u in 0..10_000 {
            let name = format!("user-{u}");
            rbac.add_user(&name);
            rbac.assign(&name, &format!("role-{}", u % 64)).unwrap();
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % 10_000;
            rbac.check(&format!("user-{i}"), "read", "area-0/doc")
        })
    });
    g.finish();
}

fn bench_e14_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_cluster");
    let build = |quorum| {
        let mut builder = ClusterBuilder::new("bench").quorum(quorum);
        for s in 0..4 {
            builder = builder.shard(
                (0..3)
                    .map(|r| {
                        std::sync::Arc::new(StaticBackend::new(
                            format!("s{s}-r{r}"),
                            dacs_policy::policy::Decision::Permit,
                        )) as std::sync::Arc<dyn DecisionBackend>
                    })
                    .collect(),
            );
        }
        builder.build()
    };
    for quorum in [QuorumMode::FirstHealthy, QuorumMode::Majority] {
        let cluster = build(quorum);
        let mut i = 0u64;
        g.bench_function(format!("decide_{}", quorum.name()), |b| {
            b.iter(|| {
                i += 1;
                let req = RequestContext::basic(
                    format!("user-{}", i % 64),
                    format!("records/{}", i % 16),
                    "read",
                );
                cluster.decide(&req, i)
            })
        });
    }
    let cluster = build(QuorumMode::Majority);
    let mut t = 0u64;
    g.bench_function("batch_flush_64", |b| {
        b.iter(|| {
            t += 1;
            let mut batch = BatchSubmitter::new(&cluster);
            for i in 0..64u64 {
                batch.submit(RequestContext::basic(
                    format!("user-{}", i % 16),
                    format!("records/{}", i % 8),
                    "read",
                ));
            }
            batch.flush(t)
        })
    });
    g.finish();
}

fn bench_e15_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("e15_fanout");
    let build = |parallel: bool, hedged: bool, quorum: QuorumMode| {
        let mut builder = ClusterBuilder::new("bench-fanout").quorum(quorum).shard(
            (0..3)
                .map(|r| {
                    std::sync::Arc::new(StaticBackend::new(
                        format!("f-r{r}"),
                        dacs_policy::policy::Decision::Permit,
                    )) as std::sync::Arc<dyn DecisionBackend>
                })
                .collect(),
        );
        if parallel {
            let mut config = SchedulerConfig::new(4);
            if hedged {
                config = config.with_hedge(HedgeConfig::default());
            }
            builder = builder.scheduler(config);
        }
        builder.build()
    };
    // Fast replicas throughout: this measures the *overhead* each
    // strategy adds on the happy path (dispatch, channel, quorum
    // bookkeeping); the harness's e15 table shows the tail-latency win
    // under a slow replica.
    for (name, parallel, hedged, quorum) in [
        (
            "decide_sequential_majority",
            false,
            false,
            QuorumMode::Majority,
        ),
        (
            "decide_parallel_majority",
            true,
            false,
            QuorumMode::Majority,
        ),
        (
            "decide_hedged_first_healthy",
            true,
            true,
            QuorumMode::FirstHealthy,
        ),
    ] {
        let cluster = build(parallel, hedged, quorum);
        let mut i = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                i += 1;
                let req = RequestContext::basic(
                    format!("user-{}", i % 64),
                    format!("records/{}", i % 16),
                    "read",
                );
                cluster.decide(&req, i)
            })
        });
    }
    g.finish();
}

fn bench_e16_resync(c: &mut Criterion) {
    let mut g = c.benchmark_group("e16_resync");
    // Catch-up replay cost: a leaf that slept through 32 updates.
    let policy = |k: u64| {
        Policy::new(PolicyId::new("gate"), CombiningAlg::DenyUnlessPermit)
            .with_rule(Rule::new(format!("v{k}"), Effect::Permit))
    };
    g.bench_function("catch_up_32_missed", |b| {
        b.iter_batched(
            || {
                let mut tree = SyndicationTree::new("root");
                let leaf = tree.add_child(0, "leaf", None);
                tree.set_online(leaf, false);
                for k in 0..32u64 {
                    tree.propagate(policy(k), k);
                }
                tree.set_online(leaf, true);
                (tree, leaf)
            },
            |(mut tree, leaf)| tree.catch_up(leaf, 1_000),
            BatchSize::SmallInput,
        )
    });
    // Quorum overhead of the epoch gate: one replica held in Syncing,
    // so every decision filters it out and accounts the exclusion.
    let gate =
        parse_policy(r#"policy "gate" deny-unless-permit { rule "ok" permit { } }"#).unwrap();
    let paps: Vec<std::sync::Arc<dacs_pap::Pap>> = (0..3)
        .map(|i| std::sync::Arc::new(dacs_pap::Pap::new(format!("pap-{i}"))))
        .collect();
    for (i, pap) in paps.iter().enumerate() {
        // Replica 2 misses the second update: its epoch lags.
        pap.apply_syndicated_stamped("root", gate.clone(), dacs_pap::PolicyEpoch(1), 0);
        if i != 2 {
            pap.apply_syndicated_stamped("root", gate.clone(), dacs_pap::PolicyEpoch(2), 1);
        }
    }
    let pips = std::sync::Arc::new(dacs_pip::PipRegistry::new());
    let root_ref = dacs_policy::policy::PolicyElement::PolicyRef(PolicyId::new("gate"));
    let cluster = ClusterBuilder::new("bench-resync")
        .quorum(QuorumMode::Majority)
        .resync(true)
        .shard(
            (0..3)
                .map(|r| {
                    std::sync::Arc::new(dacs_pdp::Pdp::new(
                        format!("g-r{r}"),
                        paps[r].clone(),
                        root_ref.clone(),
                        pips.clone(),
                    )) as std::sync::Arc<dyn DecisionBackend>
                })
                .collect(),
        )
        .build();
    cluster.mark_down("g-r2");
    cluster.mark_up("g-r2"); // returns behind → Syncing
    let mut i = 0u64;
    g.bench_function("decide_with_syncing_replica", |b| {
        b.iter(|| {
            i += 1;
            let req = RequestContext::basic(
                format!("user-{}", i % 64),
                format!("records/{}", i % 16),
                "read",
            );
            cluster.decide(&req, i)
        })
    });
    g.finish();
}

fn bench_e17_federated(c: &mut Criterion) {
    let mut g = c.benchmark_group("e17_federated");
    let ctx = CryptoCtx::new();
    let directory = Arc::new(PdpDirectory::new());
    // 2 clustered domains, 3-replica majority shards.
    let vo = clustered_healthcare_vo(2, 8, &ctx, directory, true);
    let d0 = &vo.domains[0];
    // One enforcement through the clustered decision path.
    let mut i = 0u64;
    g.bench_function("clustered_pep_enforce", |b| {
        b.iter(|| {
            i += 1;
            let req = RequestContext::basic(
                format!("user-{}@domain-0", i % 8),
                format!("records/{}", i % 16),
                "read",
            );
            d0.pep.serve(EnforceRequest::of(&req, i))
        })
    });
    // A 16-request PEP batch: one coalesced flush across the shard.
    let requests: Vec<RequestContext> = (0..16)
        .map(|k| {
            RequestContext::basic(
                format!("user-{}@domain-0", k % 8),
                format!("records/{}", k % 4),
                "read",
            )
        })
        .collect();
    let mut t = 0u64;
    g.bench_function("batched_enforce_16", |b| {
        b.iter(|| {
            t += 1;
            d0.pep.serve_batch(&requests, t, EnforceOptions::default())
        })
    });
    g.finish();
}

fn bench_e18_capability(c: &mut Criterion) {
    let mut g = c.benchmark_group("e18_capability");
    let ctx = CryptoCtx::new();
    // One clustered token domain (1×3 majority, capability fast path)
    // behind the alternating gate at a permitting version.
    let mut builder = dacs_federation::Domain::builder("cap")
        .policy(dacs_core::scenario::alternating_lockdown_gate("cap", 0))
        .clustered(
            ClusterBuilder::new("cap")
                .quorum(QuorumMode::Majority)
                .resync(true),
        )
        .cluster_topology(1, 3)
        .capability(u64::MAX / 2)
        .seed(0x18);
    for u in 0..8 {
        builder = builder.subject_attr(&format!("user-{u}@cap"), "role", "doctor");
    }
    let domain = builder.build(&ctx);
    let authority = domain.capability.clone().unwrap();

    // Raw mint + local verify, no enforcement machinery around them.
    g.bench_function("mint", |b| {
        b.iter(|| authority.mint("user-0@cap", "records/0", "read", 0))
    });
    let token = authority.mint("user-0@cap", "records/0", "read", 0);
    g.bench_function("verify", |b| {
        b.iter(|| authority.verify(&token, "user-0@cap", "records/0", "read", 1))
    });

    // Steady-state token-path enforcement: everything after the first
    // lap of the 40-request working set rides the PEP token cache.
    let mut i = 0u64;
    g.bench_function("pep_enforce_token_hit", |b| {
        b.iter(|| {
            i += 1;
            let req = RequestContext::basic(
                format!("user-{}@cap", i % 8),
                format!("records/{}", i % 5),
                "read",
            );
            domain.pep.serve(EnforceRequest::of(&req, i))
        })
    });
    g.finish();
}

fn bench_e13_discovery(c: &mut Criterion) {
    c.bench_function("e13_discovery_resolve", |b| {
        let dir = PdpDirectory::new();
        for r in 0..8 {
            dir.register(format!("pdp-{r}"), "d");
        }
        let binding = Binding::Discovery;
        b.iter(|| dir.resolve(&binding, "d"))
    });
}

fn bench_e20_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("e20_cache");

    // LRU touch at 64k capacity: the regression this pins is the old
    // Vec-order bookkeeping, whose `touch` was a linear scan — at this
    // capacity an O(n) slip shows up as a ~1000× jump, far outside
    // criterion noise.
    g.bench_function("ttl_lru_touch_64k", |b| {
        let mut cache: TtlLruCache<u64, u64> = TtlLruCache::new(65_536, 1_000_000);
        for i in 0..65_536u64 {
            cache.insert(i, i, 0);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 65_536;
            cache.get(&i, 1)
        })
    });
    g.bench_function("ttl_lru_insert_evict_64k", |b| {
        let mut cache: TtlLruCache<u64, u64> = TtlLruCache::new(65_536, 1_000_000);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            cache.insert(i, i, 0);
        })
    });

    // Contended striped-cache traffic. `iter_custom` runs the whole
    // measured batch on `threads` scoped threads sharing one cache, so
    // the per-op time includes real stripe contention; on a single
    // core the 4t/8t rows mainly show that time-slicing does not
    // collapse the shared structure.
    for threads in [1usize, 4, 8] {
        let cache: ConcurrentTtlCache<u64, u64> = ConcurrentTtlCache::new(4096, 1_000_000);
        for i in 0..4096u64 {
            cache.insert(i, i, 0);
        }
        g.bench_function(format!("concurrent_get_{threads}t"), |b| {
            b.iter_custom(|iters| {
                let start = std::time::Instant::now();
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let cache = &cache;
                        s.spawn(move || {
                            // Cheap per-thread LCG keeps key choice off
                            // the measured path's critical section.
                            let mut k = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1);
                            for _ in 0..iters {
                                k = k
                                    .wrapping_mul(6_364_136_223_846_793_005)
                                    .wrapping_add(1_442_695_040_888_963_407);
                                cache.get(&(k % 4096), 1);
                            }
                        });
                    }
                });
                start.elapsed()
            })
        });
        g.bench_function(format!("concurrent_insert_{threads}t"), |b| {
            let cache: ConcurrentTtlCache<u64, u64> = ConcurrentTtlCache::new(4096, 1_000_000);
            b.iter_custom(|iters| {
                let start = std::time::Instant::now();
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let cache = &cache;
                        s.spawn(move || {
                            let mut k = 0xd1b5_4a32_d192_ed03u64.wrapping_mul(t as u64 + 1);
                            for _ in 0..iters {
                                k = k
                                    .wrapping_mul(6_364_136_223_846_793_005)
                                    .wrapping_add(1_442_695_040_888_963_407);
                                cache.insert(k % 8192, k, 0);
                            }
                        });
                    }
                });
                start.elapsed()
            })
        });
    }

    // Cache-key cost: the 64-bit streaming hash the read path now keys
    // on, against the serialized byte vector it replaced (which also
    // paid an allocation per lookup).
    let request = RequestContext::basic("user-31337@mega", "records/1337", "read")
        .with_subject_attr("role", "doctor");
    g.bench_function("key_canonical_hash", |b| {
        b.iter(|| request.canonical_hash())
    });
    g.bench_function("key_serialized_bytes", |b| {
        b.iter(|| request.to_canonical_bytes())
    });

    // Steady-state enforce through the hashed-key decision cache: one
    // hot request, everything after the first serve is a cache hit.
    let pap = std::sync::Arc::new(dacs_pap::Pap::new("pap.bench-e20"));
    pap.submit(
        "admin",
        parse_policy(dacs_core::scenario::ReadPathScenario::policy_src()).unwrap(),
        0,
    )
    .unwrap();
    let pdp = std::sync::Arc::new(dacs_pdp::Pdp::new(
        "pdp.bench-e20",
        pap,
        dacs_policy::policy::PolicyElement::PolicyRef(PolicyId::new("mega-gate")),
        std::sync::Arc::new(dacs_pip::PipRegistry::new()),
    ));
    let pep = dacs_pep::Pep::builder("pep.bench-e20")
        .source(pdp)
        .cache(dacs_pdp::CacheConfig {
            capacity: 4096,
            ttl_ms: 1_000_000,
        })
        .build();
    let hot = dacs_core::scenario::ReadPathScenario::request_for_rank(0);
    g.bench_function("pep_enforce_hashed_key_hit", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            pep.serve(EnforceRequest::of(&hot, t % 1_000))
        })
    });
    g.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(900))
}

criterion_group!(
    name = benches;
    config = quick();
    targets = bench_substrates,
    bench_e1_e2_e8_flows,
    bench_e3_e4_engine,
    bench_e5_syndication,
    bench_e6_cache,
    bench_e7_security,
    bench_e9_conflicts,
    bench_e10_e11_e12,
    bench_e13_discovery,
    bench_e14_cluster,
    bench_e15_fanout,
    bench_e16_resync,
    bench_e17_federated,
    bench_e18_capability,
    bench_e20_cache
);
criterion_main!(benches);
