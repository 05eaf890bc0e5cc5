//! Round-trip and adversarial-input properties of the artifact format:
//! encode∘decode is bit-exact identity for every artifact type, and
//! truncated, corrupted or future-versioned bytes always decode to a
//! [`StoreError`] — never a panic, never a silently wrong value.

use proptest::prelude::*;

use mdl_ctmc::{Solution, SolveStats};
use mdl_md::{CompiledMdMatrix, KroneckerExpr, Md, MdMatrix, SparseFactor};
use mdl_mdd::Mdd;
use mdl_partition::Partition;
use mdl_store::{
    Artifact, Checkpoint, Codec, Fnv1a, KernelImage, MappedArtifact, MdImage, MddImage, Store,
    StoreError, FORMAT_VERSION, MAGIC,
};

const SIZES: [usize; 3] = [3, 4, 2];

/// Arbitrary f64 bit patterns — NaNs, infinities, signed zeros and all.
/// (The vendored rand shim cannot sample a full-width inclusive range,
/// so special values are mixed in explicitly.)
fn any_bits() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX, 0u8..8).prop_map(|(bits, sel)| match sel {
        0 => f64::NAN,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        _ => f64::from_bits(bits),
    })
}

fn vectors() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(any_bits(), 0..40)
}

fn partitions() -> impl Strategy<Value = Partition> {
    (1usize..12, prop::collection::vec(0usize..4, 12))
        .prop_map(|(n, keys)| Partition::from_key_fn(n, |s| keys[s]))
}

fn mdds() -> impl Strategy<Value = Mdd> {
    let one = (0..SIZES[0] as u32, 0..SIZES[1] as u32, 0..SIZES[2] as u32)
        .prop_map(|(a, b, c)| vec![a, b, c]);
    prop::collection::vec(one, 0..30).prop_map(|ts| Mdd::from_tuples(SIZES.to_vec(), ts).unwrap())
}

fn factors(size: usize) -> impl Strategy<Value = SparseFactor> {
    let entry = (0..size as u32, 0..size as u32, 0.1..10.0f64);
    prop::collection::vec(entry, 0..6).prop_map(move |entries| {
        let mut f = SparseFactor::new(size);
        for (r, c, v) in entries {
            f.push(r as usize, c as usize, v);
        }
        f
    })
}

fn mds() -> impl Strategy<Value = Md> {
    (factors(2), factors(3), factors(2), factors(3)).prop_map(|(a1, b1, a2, b2)| {
        let mut expr = KroneckerExpr::new(vec![2, 3]);
        expr.add_term(1.0, vec![Some(a1), Some(b1)]);
        expr.add_term(2.5, vec![Some(a2), None]);
        expr.add_term(0.5, vec![None, Some(b2)]);
        expr.to_md().unwrap()
    })
}

fn solutions() -> impl Strategy<Value = Solution> {
    (vectors(), 0usize..1_000_000, any_bits(), 0u64..u64::MAX / 2).prop_map(
        |(probabilities, iterations, residual, nanos)| Solution {
            probabilities,
            stats: SolveStats {
                iterations,
                residual,
                elapsed: std::time::Duration::from_nanos(nanos),
            },
        },
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every prefix of a valid container must decode to an error, and a
/// flip of any single byte must too (the checksum plus strict frame
/// checks leave no blind spots).
fn assert_adversarial_inputs_fail<A: Artifact>(encoded: &[u8]) {
    for_each_adversarial_input(encoded, |what, bytes| {
        assert!(A::from_bytes(bytes).is_err(), "{what} decoded successfully");
    });
}

/// [`assert_adversarial_inputs_fail`] for an image kind, with every
/// damaged container also written to a store file and opened through
/// both [`Store::load`] and [`Store::map`].
fn assert_adversarial_images_fail<A: MappedArtifact>(tag: &str, encoded: &[u8]) {
    assert_adversarial_inputs_fail::<A>(encoded);
    let dir = temp_dir(tag);
    for_each_adversarial_input(encoded, |what, bytes| {
        // A fresh handle per input: no mapping of an earlier input is
        // cached, so every open reads these bytes.
        let store = Store::open(&dir).unwrap();
        std::fs::write(store.path_for::<A>(1), bytes).unwrap();
        assert!(store.load::<A>(1).is_err(), "{what} loaded successfully");
        assert!(store.map::<A>(1).is_err(), "{what} mapped successfully");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Calls `check` on every proper prefix of `encoded` and on every
/// single-byte corruption of it.
fn for_each_adversarial_input(encoded: &[u8], mut check: impl FnMut(&str, &[u8])) {
    for cut in 0..encoded.len() {
        check(
            &format!("truncation at byte {cut} of {}", encoded.len()),
            &encoded[..cut],
        );
    }
    for i in 0..encoded.len() {
        let mut corrupt = encoded.to_vec();
        corrupt[i] ^= 0x41;
        check(
            &format!("corruption at byte {i} of {}", encoded.len()),
            &corrupt,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn vectors_round_trip_bit_exactly(v in vectors()) {
        let decoded = Vec::<f64>::from_bytes(&v.to_bytes()).unwrap();
        prop_assert_eq!(bits(&decoded), bits(&v));
    }

    #[test]
    fn partitions_round_trip(p in partitions()) {
        let decoded = Partition::from_bytes(&p.to_bytes()).unwrap();
        prop_assert_eq!(decoded, p);
    }

    #[test]
    fn mdd_images_round_trip(m in mdds()) {
        let decoded = MddImage::from_bytes(&MddImage(m.clone()).to_bytes()).unwrap().into_inner();
        prop_assert_eq!(decoded.sizes(), m.sizes());
        prop_assert_eq!(decoded.count(), m.count());
        for level in 0..m.num_levels() {
            prop_assert_eq!(decoded.raw_level_children(level), m.raw_level_children(level));
        }
        prop_assert_eq!(decoded.tuples(), m.tuples());
    }

    #[test]
    fn md_images_round_trip(md in mds()) {
        let encoded = MdImage(md.clone()).to_bytes();
        let decoded = MdImage::from_bytes(&encoded).unwrap().into_inner();
        prop_assert_eq!(decoded.sizes(), md.sizes());
        prop_assert_eq!(decoded.num_nodes(), md.num_nodes());
        for level in 0..md.num_levels() {
            prop_assert_eq!(decoded.level_nodes(level), md.level_nodes(level));
        }
        // Re-encoding is byte-identical: the slab layout is stable.
        prop_assert_eq!(MdImage(decoded).to_bytes(), encoded);
    }

    #[test]
    fn solutions_round_trip_bit_exactly(s in solutions()) {
        let decoded = Solution::from_bytes(&s.to_bytes()).unwrap();
        prop_assert_eq!(bits(&decoded.probabilities), bits(&s.probabilities));
        prop_assert_eq!(decoded.stats.iterations, s.stats.iterations);
        prop_assert_eq!(decoded.stats.residual.to_bits(), s.stats.residual.to_bits());
        prop_assert_eq!(decoded.stats.elapsed, s.stats.elapsed);
    }

    #[test]
    fn truncation_and_corruption_never_panic_vectors(v in vectors()) {
        assert_adversarial_inputs_fail::<Vec<f64>>(&v.to_bytes());
    }

    #[test]
    fn truncation_and_corruption_never_panic_solutions(s in solutions()) {
        assert_adversarial_inputs_fail::<Solution>(&s.to_bytes());
    }
}

proptest! {
    // Each case opens a few thousand damaged files; fewer cases suffice.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn truncation_and_corruption_never_panic_mdd_images(m in mdds()) {
        assert_adversarial_images_fail::<MddImage>("adv-mdd", &MddImage(m).to_bytes());
    }

    #[test]
    fn truncation_and_corruption_never_panic_md_images(md in mds()) {
        assert_adversarial_images_fail::<MdImage>("adv-md", &MdImage(md).to_bytes());
    }
}

#[test]
fn truncation_and_corruption_never_panic_structured() {
    let p = Partition::from_classes(vec![vec![0, 2], vec![1]]);
    assert_adversarial_inputs_fail::<Partition>(&p.to_bytes());
    let mut expr = KroneckerExpr::new(vec![2, 2]);
    let mut f = SparseFactor::new(2);
    f.push(0, 1, 1.0);
    f.push(1, 0, 2.0);
    expr.add_term(1.0, vec![Some(f), None]);
    let md = expr.to_md().unwrap();
    assert_adversarial_images_fail::<MdImage>("adv-md-fixed", &MdImage(md).to_bytes());
    let (compiled, _) = small_kernel();
    assert_adversarial_images_fail::<KernelImage>(
        "adv-kernel",
        &KernelImage(compiled.to_parts()).to_bytes(),
    );
    let ck = Checkpoint {
        phase: "solve.power".into(),
        iterations: 42,
        residual: 1e-9,
        iterate: vec![0.25, 0.75],
        aux: vec![],
        scalars: vec![],
    };
    assert_adversarial_inputs_fail::<Checkpoint>(&ck.to_bytes());
}

#[test]
fn future_version_is_rejected() {
    let v: Vec<f64> = vec![1.0, 2.0];
    let mut bytes = v.to_bytes();
    // Bump the version field (offset 4, little-endian u16).
    let bumped = FORMAT_VERSION + 1;
    bytes[4..6].copy_from_slice(&bumped.to_le_bytes());
    match Vec::<f64>::from_bytes(&bytes) {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, bumped);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn wrong_kind_is_rejected() {
    let v: Vec<f64> = vec![1.0];
    let bytes = v.to_bytes();
    match Solution::from_bytes(&bytes) {
        Err(StoreError::WrongKind { found, expected }) => {
            assert_eq!(found, <Vec<f64> as Codec>::KIND);
            assert_eq!(expected, Solution::KIND);
        }
        other => panic!("expected WrongKind, got {other:?}"),
    }
}

#[test]
fn checkpoint_round_trips() {
    let ck = Checkpoint {
        phase: "solve.jacobi".into(),
        iterations: 1234,
        residual: 3.5e-7,
        iterate: vec![0.1, -0.0, f64::MIN_POSITIVE],
        aux: vec![0.4, 0.6],
        scalars: vec![-2.5, 0.97],
    };
    let decoded = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
    assert_eq!(decoded.phase, ck.phase);
    assert_eq!(decoded.iterations, ck.iterations);
    assert_eq!(decoded.residual.to_bits(), ck.residual.to_bits());
    assert_eq!(bits(&decoded.iterate), bits(&ck.iterate));
    assert_eq!(bits(&decoded.aux), bits(&ck.aux));
    assert_eq!(bits(&decoded.scalars), bits(&ck.scalars));
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mdl-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn temp_store(tag: &str) -> Store {
    Store::open(temp_dir(tag)).unwrap()
}

fn small_kernel() -> (CompiledMdMatrix, usize) {
    let mut w = SparseFactor::new(3);
    w.push(0, 1, 1.25);
    w.push(2, 1, 0.75);
    let mut cyc = SparseFactor::new(2);
    cyc.push(0, 1, 2.0);
    cyc.push(1, 0, 2.0);
    let mut expr = KroneckerExpr::new(vec![2, 3]);
    expr.add_term(1.0, vec![Some(cyc), None]);
    expr.add_term(0.5, vec![None, Some(w)]);
    let matrix = MdMatrix::new(expr.to_md().unwrap(), Mdd::full(vec![2, 3]).unwrap()).unwrap();
    let n = matrix.reach().count() as usize;
    (CompiledMdMatrix::compile(&matrix), n)
}

/// A kernel image opened by `mmap` (zero-copy slabs) and the same image
/// copy-decoded must rebuild kernels whose products agree to the bit.
#[cfg(unix)]
#[test]
fn mapped_and_decoded_kernels_are_byte_identical() {
    use mdl_linalg::RateMatrix;

    let store = temp_store("map-vs-decode");
    let (compiled, n) = small_kernel();
    let parts = compiled.to_parts();
    store.save(3, &KernelImage(parts.clone())).unwrap();

    let mapped = store.map::<KernelImage>(3).unwrap().expect("mapped open");
    assert!(mapped.0.is_mapped(), "slabs borrow the mapping");
    let decoded = store.load::<KernelImage>(3).unwrap().expect("copy decode");
    assert!(!decoded.0.is_mapped());
    assert_eq!(mapped.0, decoded.0);
    assert_eq!(mapped.0, parts);

    let x: Vec<f64> = (0..n).map(|i| 0.3 + 0.41 * i as f64).collect();
    let mut want = vec![0.0; n];
    compiled.acc_mat_vec(&x, &mut want);
    for parts in [mapped.0, decoded.0] {
        let kernel = CompiledMdMatrix::from_parts(parts, 2).unwrap();
        let mut got = vec![0.0; n];
        kernel.acc_mat_vec(&x, &mut got);
        assert_eq!(bits(&want), bits(&got));
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// An MD and an MDD report the same `memory_bytes` (the paper's "MD
/// space") whether their slabs are owned or borrowed from a mapping.
#[cfg(unix)]
#[test]
fn mapped_diagrams_report_their_full_size() {
    let store = temp_store("map-memory");
    let (compiled, _) = small_kernel();
    let md = mds_sample();
    let mdd = Mdd::from_tuples(SIZES.to_vec(), vec![vec![0, 0, 0], vec![2, 3, 1]]).unwrap();
    store.save(4, &MdImage(md.clone())).unwrap();
    store.save(4, &MddImage(mdd.clone())).unwrap();
    store.save(4, &KernelImage(compiled.to_parts())).unwrap();

    let mapped_md = store.map::<MdImage>(4).unwrap().unwrap().into_inner();
    let mapped_mdd = store.map::<MddImage>(4).unwrap().unwrap().into_inner();
    let mapped_kernel = store.map::<KernelImage>(4).unwrap().unwrap().into_inner();
    assert!(mapped_md.is_mapped() && mapped_mdd.is_mapped() && mapped_kernel.is_mapped());
    assert!(md.memory_bytes() > 0 && mdd.memory_bytes() > 0);
    assert_eq!(mapped_md.memory_bytes(), md.memory_bytes());
    assert_eq!(mapped_mdd.memory_bytes(), mdd.memory_bytes());
    let mapped_kernel = CompiledMdMatrix::from_parts(mapped_kernel, 1).unwrap();
    assert_eq!(mapped_kernel.memory_bytes(), compiled.memory_bytes());
    let _ = std::fs::remove_dir_all(store.root());
}

fn mds_sample() -> Md {
    let mut expr = KroneckerExpr::new(vec![2, 3]);
    let mut a = SparseFactor::new(2);
    a.push(0, 1, 1.25);
    a.push(1, 0, 0.5);
    let mut b = SparseFactor::new(3);
    b.push(0, 2, 2.0);
    b.push(2, 1, 3.0);
    expr.add_term(1.0, vec![Some(a), None]);
    expr.add_term(1.0, vec![None, Some(b)]);
    expr.to_md().unwrap()
}

/// Frames an arbitrary image payload as a valid container of kind `A`
/// (correct length and checksum), so the structural checks of the image
/// reader — not the checksum — must reject it.
fn framed<A: Codec>(payload: &[u8]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&A::KIND.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&Fnv1a::hash_bytes(payload).to_le_bytes());
    bytes
}

/// Opens checksum-valid but structurally wrong image bytes through
/// every read path, expecting [`StoreError::Corrupted`] each time.
fn assert_rejected_image<A: MappedArtifact>(tag: &str, bytes: &[u8]) {
    assert!(
        matches!(A::from_bytes(bytes), Err(StoreError::Corrupted { .. })),
        "{tag}: decode accepted the image"
    );
    let store = temp_store(tag);
    std::fs::write(store.path_for::<A>(1), bytes).unwrap();
    for (path, result) in [("load", store.load::<A>(1)), ("map", store.map::<A>(1))] {
        assert!(
            matches!(result, Err(StoreError::Corrupted { .. })),
            "{tag}: {path} accepted the image"
        );
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// An MDD image whose root offsets read `[0, 3]` instead of `[0, 2]`
/// would rank a tuple past the end of its 4-tuple set; it must be
/// rejected when opened, not panic later in `tuple_at`.
#[test]
fn mdd_image_with_wrong_offsets_is_rejected() {
    // The full 2 × 2 set in the layout `Mdd::write_image` documents:
    // tag 0 holds the sizes, level `l` tags `16 + 4l` (children),
    // `+1` (offsets) and `+2` (counts).
    let image = |root_offsets: &[u64]| {
        let mut w = mdl_arena::ImageWriter::new();
        w.put_u64(0, &[2, 2]);
        w.put_u32(16, &[0, 0]);
        w.put_u64(17, root_offsets);
        w.put_u64(18, &[4]);
        w.put_u32(20, &[Mdd::RAW_TERMINAL, Mdd::RAW_TERMINAL]);
        w.put_u64(21, &[0, 1]);
        w.put_u64(22, &[2]);
        framed::<MddImage>(&w.finish())
    };
    let good = MddImage::from_bytes(&image(&[0, 2])).unwrap().into_inner();
    assert_eq!(good.tuples(), Mdd::full(vec![2, 2]).unwrap().tuples());
    assert_rejected_image::<MddImage>("bad-offsets", &image(&[0, 3]));
}

/// An MD image holding one NaN coefficient must be rejected when opened,
/// not panic later when the matrix is flattened.
#[test]
fn md_image_with_nan_coefficient_is_rejected() {
    let md = mds_sample();
    let mut w = mdl_arena::ImageWriter::new();
    md.write_image(&mut w);
    let mut payload = w.finish();
    let needle = 1.25f64.to_le_bytes();
    let at = payload
        .windows(8)
        .position(|win| win == needle)
        .expect("the 1.25 coefficient is in the image");
    payload[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    assert_rejected_image::<MdImage>("nan-coef", &framed::<MdImage>(&payload));
}

/// A second map of the same key reuses the cached mapping (one region,
/// many `Arc`s), and rewriting the file invalidates the cache entry.
#[cfg(unix)]
#[test]
fn mapping_cache_hits_and_invalidation() {
    let store = temp_store("map-cache");
    let mdd = Mdd::from_tuples(SIZES.to_vec(), vec![vec![0, 0, 0], vec![2, 3, 1]]).unwrap();
    store.save(9, &MddImage(mdd)).unwrap();
    let a = store.map::<MddImage>(9).unwrap().unwrap();
    let b = store.map::<MddImage>(9).unwrap().unwrap();
    assert!(a.0.is_mapped() && b.0.is_mapped());
    assert_eq!(a.0.tuples(), b.0.tuples());

    // Replace with different content; the next map must see it.
    let other = Mdd::from_tuples(SIZES.to_vec(), vec![vec![1, 1, 1]]).unwrap();
    store.save(9, &MddImage(other.clone())).unwrap();
    // Rewrites go through rename(2): `a` still reads the old inode.
    assert_eq!(a.0.count(), 2);
    let fresh = store.map::<MddImage>(9).unwrap().unwrap();
    assert_eq!(fresh.0.tuples(), other.tuples());
    let _ = std::fs::remove_dir_all(store.root());
}

/// Image artifacts use mapping-aware sidecar names; `sweep_debris`
/// must collect them alongside the `.lock`/`.tmp.` debris of `.mdls` kinds.
#[test]
fn sweep_collects_mapped_sidecar_debris() {
    let store = temp_store("map-sweep");
    let (compiled, _) = small_kernel();
    store.save(1, &KernelImage(compiled.to_parts())).unwrap();
    let artifact = store.path_for::<KernelImage>(1);
    assert!(artifact.to_string_lossy().ends_with(".mdlm"));
    let maplock = store.root().join("kernelimg-0000000000000001.mdlm.maplock");
    let new_tmp = store
        .root()
        .join("kernelimg-0000000000000001.mdlm.new.123.0");
    std::fs::write(&maplock, b"").unwrap();
    std::fs::write(&new_tmp, b"partial").unwrap();
    // Gentle sweep keeps fresh debris (live writers), forced removes it.
    assert_eq!(store.sweep_debris(false).unwrap(), 0);
    assert!(maplock.exists() && new_tmp.exists());
    assert_eq!(store.sweep_debris(true).unwrap(), 2);
    assert!(!maplock.exists() && !new_tmp.exists());
    assert!(artifact.exists(), "sweep never touches artifacts");
    let _ = std::fs::remove_dir_all(store.root());
}
