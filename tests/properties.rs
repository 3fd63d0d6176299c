//! Property-based tests over core invariants: combining algorithms,
//! glob matching, DSL round-trips, codec round-trips, cache behaviour,
//! and the crypto substrate.

use dacs::policy::combining::Combiner;
use dacs::policy::dsl::{parse_policy, print_policy};
use dacs::policy::glob::{glob_match, globs_may_overlap};
use dacs::policy::policy::{CombiningAlg, Decision, Effect, Obligation, Policy, PolicyId, Rule};
use dacs::policy::target::{AttrMatch, Target};
use dacs::policy::AttributeId;
use proptest::prelude::*;

fn arb_decision() -> impl Strategy<Value = Decision> {
    prop_oneof![
        Just(Decision::Permit),
        Just(Decision::Deny),
        Just(Decision::NotApplicable),
        Just(Decision::Indeterminate),
    ]
}

/// Token fields on both sides of every SHA-256 block boundary.
fn arb_token_field() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-z]{1}",
        "[a-z0-9@/.-]{2,64}",
        "[a-z0-9@/.-]{65,128}",
        "[a-z0-9@/.-]{129,400}",
    ]
}

fn combine(alg: CombiningAlg, ds: &[Decision]) -> Decision {
    Combiner::combine_all(alg, ds.iter().map(|d| (*d, Vec::<Obligation>::new()))).0
}

proptest! {
    #[test]
    fn deny_overrides_honours_any_deny(ds in prop::collection::vec(arb_decision(), 0..12)) {
        let out = combine(CombiningAlg::DenyOverrides, &ds);
        if ds.contains(&Decision::Deny) {
            prop_assert_eq!(out, Decision::Deny);
        } else {
            prop_assert_ne!(out, Decision::Deny);
        }
    }

    #[test]
    fn permit_overrides_honours_any_permit(ds in prop::collection::vec(arb_decision(), 0..12)) {
        let out = combine(CombiningAlg::PermitOverrides, &ds);
        if ds.contains(&Decision::Permit) {
            prop_assert_eq!(out, Decision::Permit);
        } else {
            prop_assert_ne!(out, Decision::Permit);
        }
    }

    #[test]
    fn deny_unless_permit_is_total(ds in prop::collection::vec(arb_decision(), 0..12)) {
        let out = combine(CombiningAlg::DenyUnlessPermit, &ds);
        prop_assert!(out == Decision::Permit || out == Decision::Deny);
        prop_assert_eq!(out == Decision::Permit, ds.contains(&Decision::Permit));
    }

    #[test]
    fn first_applicable_returns_first_applicable(ds in prop::collection::vec(arb_decision(), 0..12)) {
        let out = combine(CombiningAlg::FirstApplicable, &ds);
        let first = ds.iter().find(|d| **d != Decision::NotApplicable);
        match first {
            Some(d) => prop_assert_eq!(out, *d),
            None => prop_assert_eq!(out, Decision::NotApplicable),
        }
    }

    #[test]
    fn glob_literal_prefix_matches_itself(s in "[a-z/]{0,20}") {
        prop_assert!(glob_match(&s, &s));
        let prefixed = format!("{s}*");
        prop_assert!(glob_match(&prefixed, &s));
        prop_assert!(glob_match("*", &s));
    }

    #[test]
    fn glob_overlap_is_sound(a in "[ab/]{0,6}", b in "[ab/]{0,6}", probe in "[ab/]{0,6}") {
        // If both patterns match a common literal, overlap must be true.
        if glob_match(&a, &probe) && glob_match(&b, &probe) {
            prop_assert!(globs_may_overlap(&a, &b));
        }
    }

    #[test]
    fn codec_roundtrips_request_contexts(
        subject in "[a-z]{1,8}", resource in "[a-z/]{1,12}", action in "[a-z]{1,6}",
        extra in prop::collection::vec(("[a-z]{1,6}", -100i64..100), 0..4),
    ) {
        let mut req = dacs::policy::request::RequestContext::basic(
            subject.as_str(), resource.as_str(), action.as_str());
        for (name, v) in &extra {
            req.add(AttributeId::subject(name), *v);
        }
        let bytes = dacs::wire::codec::to_bytes(&req).unwrap();
        let back: dacs::policy::request::RequestContext =
            dacs::wire::codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(req, back);
    }

    /// The flat request record against the map it replaced: one random
    /// schedule of `add` / `with_*_attr` / `merge` steps over a small id
    /// and value alphabet is applied to a `RequestContext` and to a
    /// `BTreeMap` of bags keyed by plain strings, and everything the
    /// context can be asked agrees with the model after every step —
    /// conventional names (shared statics) and custom ones (owned)
    /// order, hash and print like the strings they hold, and a bag
    /// grows from its inline value to many wherever the second comes
    /// from. After every step the context survives its own frame. The
    /// same schedule with each `(id, value)` step delivered grouped by
    /// id — a permutation across ids that keeps every bag's own order —
    /// builds an equal context, value by value through `add` and as a
    /// frame of one-value entries folded by `Deserialize`.
    #[test]
    fn request_context_matches_a_btreemap_of_bags(
        steps in prop::collection::vec(
            (0usize..4, 0usize..5, 0usize..6, prop::collection::vec((0usize..4, 0usize..5, 0usize..6), 0..4)),
            0..24,
        ),
    ) {
        use dacs::policy::attr::{AttrValue, Category};
        use dacs::policy::request::RequestContext;
        use dacs::wire::codec::{from_bytes, to_bytes};
        use std::collections::BTreeMap;
        use std::hash::{BuildHasher, RandomState};

        /// Three conventional names among two custom ones, in an order
        /// that interleaves them.
        const NAMES: [&str; 5] = ["id", "role", "dept", "current-time", "zone"];
        let id_of = |category: usize, name: usize| {
            AttributeId::new(Category::ALL[category], NAMES[name])
        };
        // The model's key: the id as plain data, its name a `String`.
        type Model = BTreeMap<(Category, String), Vec<AttrValue>>;
        let key = |id: &AttributeId| (id.category, id.name.to_string());
        let hasher = RandomState::new();
        let value_of = |v: usize| match v {
            0 => AttrValue::from("alice"),
            1 => AttrValue::from("o\"brien"),
            2 => AttrValue::Integer(7),
            3 => AttrValue::Boolean(true),
            4 => AttrValue::Time(9),
            _ => AttrValue::Double(0.5),
        };
        let canonical = |model: &Model| {
            let mut out = String::new();
            for ((category, name), bag) in model {
                out += &format!("{category}.{name}=");
                bag.iter().for_each(|v| out += &format!("{v},"));
                out.push(';');
            }
            out.into_bytes()
        };
        let first_str = |model: &Model, category: usize| {
            let bag = model.get(&key(&id_of(category, 0)))?;
            bag.iter().find_map(|v| v.as_str().map(str::to_owned))
        };

        let mut ctx = RequestContext::new();
        let mut model = Model::new();
        let mut flat: Vec<(AttributeId, AttrValue)> = Vec::new();
        for (category, name, value, merged) in steps {
            let (id, v) = (id_of(category, name), value_of(value));
            if merged.is_empty() {
                // One value: through `add`, or the builder of its category.
                let name = id.name.clone();
                ctx = match (category, value % 2) {
                    (0, 0) => ctx.with_subject_attr(&name, v.clone()),
                    (1, 0) => ctx.with_resource_attr(&name, v.clone()),
                    (3, 0) => ctx.with_env_attr(&name, v.clone()),
                    _ => {
                        ctx.add(id.clone(), v.clone());
                        ctx
                    }
                };
                model.entry(key(&id)).or_default().push(v.clone());
                flat.push((id, v));
            } else {
                let mut other = RequestContext::new();
                let mut other_model = Model::new();
                for (c, n, x) in merged {
                    other.add(id_of(c, n), value_of(x));
                    other_model.entry(key(&id_of(c, n))).or_default().push(value_of(x));
                }
                ctx.merge(&other);
                for ((category, name), bag) in other_model {
                    // An id named by an owned `String`, as a parser builds it.
                    let id = AttributeId::new(category, name.clone());
                    flat.extend(bag.iter().map(|v| (id.clone(), v.clone())));
                    model.entry((category, name)).or_default().extend(bag);
                }
            }

            let entries: Vec<_> = ctx.iter().map(|(id, bag)| (key(id), bag.to_vec())).collect();
            let expected: Vec<_> = model.iter().map(|(id, bag)| (id.clone(), bag.clone())).collect();
            prop_assert_eq!(entries, expected);
            prop_assert_eq!(ctx.len(), model.len());
            prop_assert_eq!(ctx.is_empty(), model.is_empty());
            for (id, _) in ctx.iter() {
                prop_assert_eq!(hasher.hash_one(id), hasher.hash_one(key(id)));
                let (category, name) = key(id);
                prop_assert_eq!(format!("{:?}", id.name), format!("{name:?}"));
                prop_assert_eq!(id.to_string(), format!("{category}.{name}"));
            }
            for c in 0..4 {
                for n in 0..NAMES.len() {
                    let probe = id_of(c, n);
                    prop_assert_eq!(ctx.contains(&probe), model.contains_key(&key(&probe)));
                    prop_assert_eq!(ctx.bag(&probe), model.get(&key(&probe)).map_or(&[][..], Vec::as_slice));
                }
                let ids: Vec<_> = ctx.ids_in_category(Category::ALL[c]).map(key).collect();
                let expected: Vec<_> = model.keys().filter(|id| id.0 == Category::ALL[c]).cloned().collect();
                prop_assert_eq!(ids, expected);
            }
            prop_assert_eq!(ctx.subject_id().map(str::to_owned), first_str(&model, 0));
            prop_assert_eq!(ctx.resource_id().map(str::to_owned), first_str(&model, 1));
            prop_assert_eq!(ctx.action_id().map(str::to_owned), first_str(&model, 2));
            let byte_len: usize = model
                .iter()
                .map(|((_, name), bag)| name.len() + 2 + bag.iter().map(AttrValue::byte_len).sum::<usize>())
                .sum();
            prop_assert_eq!(ctx.byte_len(), byte_len);
            prop_assert_eq!(ctx.to_canonical_bytes(), canonical(&model));
            // The model's entries added in descending id order make the
            // same context, with the same hash: what the caches key on.
            let mut rebuilt = RequestContext::new();
            for ((category, name), bag) in model.iter().rev() {
                let id = AttributeId::new(*category, name.clone());
                bag.iter().for_each(|v| rebuilt.add(id.clone(), v.clone()));
            }
            prop_assert_eq!(&rebuilt, &ctx);
            let hash = ctx.canonical_hash();
            prop_assert_eq!(rebuilt.canonical_hash(), hash);
            // Its own frame gives back the same context, hash and frame.
            let frame = to_bytes(&ctx).unwrap();
            let decoded: RequestContext = from_bytes(&frame).unwrap();
            prop_assert_eq!(&decoded, &ctx);
            prop_assert_eq!(decoded.canonical_hash(), hash);
            prop_assert_eq!(to_bytes(&decoded).unwrap(), frame);
        }

        // The schedule's values as a frame of one-value entries, a
        // repeated id's far apart: `Deserialize` grows each bag as the
        // steps did.
        let split: Vec<(AttributeId, Vec<AttrValue>)> =
            flat.iter().map(|(id, v)| (id.clone(), vec![v.clone()])).collect();
        let decoded: RequestContext = from_bytes(&to_bytes(&split).unwrap()).unwrap();
        // Stable by id: ids change places, each bag keeps its order.
        flat.sort_by(|a, b| b.0.cmp(&a.0));
        let mut permuted = RequestContext::new();
        for (id, v) in flat {
            permuted.add(id, v);
        }
        prop_assert_eq!(&permuted, &ctx);
        // Built value by value or decoded, it is one value.
        prop_assert_eq!(&decoded, &permuted);
        prop_assert_eq!(decoded.canonical_hash(), permuted.canonical_hash());
        prop_assert_eq!(decoded.to_canonical_bytes(), permuted.to_canonical_bytes());
        prop_assert_eq!(to_bytes(&decoded).unwrap(), to_bytes(&permuted).unwrap());
    }

    #[test]
    fn dsl_roundtrip_for_generated_policies(
        id in "[a-z][a-z0-9-]{0,12}",
        role in "[a-z]{1,8}",
        resource in "[a-z]{1,8}",
        effect_permit in any::<bool>(),
        n_rules in 1usize..4,
    ) {
        let mut policy = Policy::new(PolicyId::new(id), CombiningAlg::FirstApplicable);
        for i in 0..n_rules {
            let effect = if effect_permit { Effect::Permit } else { Effect::Deny };
            policy = policy.with_rule(
                Rule::new(format!("r{i}"), effect).with_target(Target::all(vec![
                    AttrMatch::equals(AttributeId::subject("role"), role.as_str()),
                    AttrMatch::glob(AttributeId::resource("id"), format!("{resource}/*")),
                ])),
            );
        }
        let printed = print_policy(&policy);
        let reparsed = parse_policy(&printed).unwrap();
        prop_assert_eq!(policy, reparsed);
    }

    #[test]
    fn hmac_tags_differ_on_any_input_change(
        key in prop::collection::vec(any::<u8>(), 1..32),
        msg in prop::collection::vec(any::<u8>(), 0..64),
        flip in 0usize..64,
    ) {
        let t1 = dacs::crypto::hmac::hmac_sha256(&key, &msg);
        let mut msg2 = msg.clone();
        if msg2.is_empty() {
            msg2.push(1);
        } else {
            let i = flip % msg2.len();
            msg2[i] ^= 1;
        }
        let t2 = dacs::crypto::hmac::hmac_sha256(&key, &msg2);
        prop_assert_ne!(t1, t2);
    }

    /// The cheaper MAC is the same MAC: a token's tag, streamed field by
    /// field into a clone of the key's precomputed context, is
    /// `HMAC-SHA256(key, signing_bytes())` — for empty, one-byte,
    /// longer-than-a-block and multi-block fields alike.
    #[test]
    fn capability_mac_is_hmac_over_the_signing_bytes(
        key in prop::collection::vec(any::<u8>(), 32..33),
        subject in arb_token_field(),
        resource in arb_token_field(),
        action in arb_token_field(),
        issued_at in any::<u64>(),
        ttl in any::<u64>(),
        epoch in any::<u64>(),
    ) {
        use dacs::capability::{CapabilityKey, CapabilityToken, TokenError};
        let key = CapabilityKey::from_bytes(key.try_into().expect("32 bytes"));
        let epoch = dacs::pap::PolicyEpoch(epoch);
        let token =
            CapabilityToken::mint(&key, &*subject, &*resource, &*action, issued_at, ttl, epoch);
        let expected = dacs::crypto::hmac::hmac_sha256(key.as_bytes(), &token.signing_bytes());
        prop_assert_eq!(token.mac, expected);
        // The verifier recomputes the same tag (a zero TTL may expire
        // the token, but never on its MAC).
        let verdict = token.verify(&key, &subject, &resource, &action, issued_at, epoch);
        prop_assert_ne!(verdict, Err(TokenError::BadMac));
    }

    #[test]
    fn base64_roundtrips(data in prop::collection::vec(any::<u8>(), 0..128)) {
        let enc = dacs::wire::base64::encode(&data);
        prop_assert_eq!(dacs::wire::base64::decode(&enc), Some(data));
    }

    #[test]
    fn ttl_cache_never_serves_expired(
        ttl in 1u64..50,
        ops in prop::collection::vec((0u64..8, 0u64..200), 1..40),
    ) {
        let mut cache = dacs::pdp::TtlLruCache::<u64>::new(4, ttl);
        let mut inserted_at: std::collections::HashMap<u64, u64> = Default::default();
        let mut now = 0;
        for (key, advance) in ops {
            now += advance;
            if let Some(_v) = cache.get(key, now) {
                let at = inserted_at[&key];
                prop_assert!(now < at + ttl, "expired entry served");
            } else {
                cache.insert(key, now, now);
                inserted_at.insert(key, now);
            }
        }
    }

    /// Consistent-hash stability (ISSUE 5): growing a `ShardRouter` by
    /// one shard moves only the keys the new shard's ring points
    /// capture — every moved key lands on the new shard and the
    /// moved fraction stays well under half — and shrinking by one
    /// shard never remaps a key that was not on the removed shard.
    #[test]
    fn shard_router_scaling_remaps_a_bounded_fraction(
        n in 2usize..9,
        salt in any::<u64>(),
    ) {
        use dacs::cluster::ShardRouter;
        let before = ShardRouter::new(n);
        let grown = ShardRouter::new(n + 1);
        let shrunk = ShardRouter::new(n - 1);
        let keys: Vec<String> = (0..512)
            .map(|i| format!("user-{salt}-{i}\u{1f}records/{}", i % 97))
            .collect();
        let mut moved_on_growth = 0usize;
        for key in &keys {
            let b = before.shard_for_key(key);
            prop_assert!(b < n);
            // Stable within a router and across rebuilds.
            prop_assert_eq!(b, before.shard_for_key(key));
            prop_assert_eq!(b, ShardRouter::new(n).shard_for_key(key));
            let g = grown.shard_for_key(key);
            if g != b {
                moved_on_growth += 1;
                // A key may only ever move *to* the added shard: the
                // surviving shards' ring points are identical in both
                // rings, so unaffected keys cannot be re-routed.
                prop_assert_eq!(g, n, "key moved between surviving shards");
            }
            let s = shrunk.shard_for_key(key);
            if b != n - 1 {
                // Keys off the removed (last) shard must not move.
                prop_assert_eq!(s, b, "unaffected key remapped on shrink");
            } else {
                prop_assert!(s < n - 1, "orphaned key must land on a survivor");
            }
        }
        // Bounded movement: the expected share is 1/(n+1) of the keys;
        // half is a generous, non-flaky ceiling (hash % n would move
        // (n-1)/n of them).
        prop_assert!(
            moved_on_growth < keys.len() / 2,
            "{} of {} keys moved on scale-out", moved_on_growth, keys.len()
        );
        prop_assert!(moved_on_growth > 0, "a new shard must capture some keys");
    }

    /// A request lands where its routing key does: `shard_for` hashes
    /// the ids where the request holds them, and the stream it hashes
    /// is the key spelled out for `shard_for_key` — `subject ␟ resource`,
    /// an absent id read as empty — with or without other attributes.
    #[test]
    fn shard_for_routes_a_request_where_its_routing_key_lands(
        subject in "[a-z0-9@.-]{0,12}",
        resource in "[a-z0-9/]{0,16}",
        has_subject in any::<bool>(),
        has_resource in any::<bool>(),
        shards in 1usize..=8,
    ) {
        use dacs::cluster::ShardRouter;
        use dacs::policy::request::RequestContext;
        let mut request = RequestContext::new().with_subject_attr("role", "doctor");
        let subject = if has_subject { subject.as_str() } else { "" };
        let resource = if has_resource { resource.as_str() } else { "" };
        if has_subject {
            request.add(AttributeId::subject("id"), subject);
        }
        if has_resource {
            request.add(AttributeId::resource("id"), resource);
        }
        request.add(AttributeId::action("id"), "read");
        let router = ShardRouter::new(shards);
        let shard = router.shard_for(&request);
        prop_assert!(shard < shards);
        prop_assert_eq!(shard, router.shard_for_key(&format!("{subject}\u{1f}{resource}")));
    }

    /// Read-path concurrency (ISSUE 9): with a single stripe, the
    /// striped cache degenerates to exactly the single-lock
    /// `TtlLruCache` it wraps — every get answers identically, and the
    /// lengths and aggregate stats match after any op sequence. (The
    /// per-stripe equivalence for multi-stripe configurations lives in
    /// `dacs-pdp`'s own property suite, which routes a bank of
    /// single-lock caches by `stripe_index`.)
    #[test]
    fn striped_cache_with_one_stripe_matches_single_lock(
        capacity in 1usize..6,
        ttl in 1u64..60,
        ops in prop::collection::vec((0u64..10, 0u64..30, any::<bool>()), 1..60),
    ) {
        let striped = dacs::pdp::ConcurrentTtlCache::<u64>::with_stripes(1, capacity, ttl);
        let mut single = dacs::pdp::TtlLruCache::<u64>::new(capacity, ttl);
        let mut now = 0u64;
        for (key, advance, write) in ops {
            now += advance;
            if write {
                striped.insert(key, key, now);
                single.insert(key, key, now);
            } else {
                prop_assert_eq!(striped.get(key, now), single.get(key, now));
            }
        }
        prop_assert_eq!(striped.len(), single.len());
        let (a, b) = (striped.stats(), single.stats());
        prop_assert_eq!(a.hits, b.hits);
        prop_assert_eq!(a.misses, b.misses);
        prop_assert_eq!(a.evictions, b.evictions);
        prop_assert_eq!(a.expirations, b.expirations);
    }

    #[test]
    fn zipf_sampler_in_range(n in 1usize..200, s in 0.0f64..2.5, seed in any::<u64>()) {
        use rand::SeedableRng;
        let z = dacs::core::workload::ZipfSampler::new(n, s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }
}

/// The ring itself, pinned literally: the shard of `user-i@q` reading
/// `records/i`, for i in 0..24, on rings of 2 to 8 shards. Every shard
/// cache's slice of the keyspace is these values; a diff here moves
/// keys between shards and must be a decision.
#[test]
fn shard_routes_are_pinned() {
    use dacs::cluster::ShardRouter;
    use dacs::policy::request::RequestContext;
    let pinned = [
        "110011010100111110101011",
        "112212210200211122201011",
        "133212230200211122203313",
        "143412430204211122203413",
        "543412450254211122205453",
        "543412450254216122205463",
        "543412470254717122205763",
    ];
    for (shards, expected) in (2..=8).zip(pinned) {
        let router = ShardRouter::new(shards);
        let routes: String = (0..24)
            .map(|i| {
                let request =
                    RequestContext::basic(format!("user-{i}@q"), format!("records/{i}"), "read");
                char::from(b'0' + router.shard_for(&request) as u8)
            })
            .collect();
        assert_eq!(routes, expected, "{shards} shards");
    }
}

#[test]
fn merkle_signature_forgery_resistance_smoke() {
    use dacs::crypto::merkle::MerkleKeypair;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut kp = MerkleKeypair::generate(&mut rng, 3);
    let root = kp.public_root();
    let sig = kp.sign(b"permit alice").unwrap();
    // Any single-bit flip in the serialized WOTS signature must break it.
    for byte in [0usize, 100, 1000, 2000] {
        let mut forged = sig.clone();
        let idx = byte % forged.wots_sig.len();
        forged.wots_sig[idx] ^= 0x01;
        assert!(!root.verify(b"permit alice", &forged));
    }
}
