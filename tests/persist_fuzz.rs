//! Failure injection for the persistence layer: the HOPL v3 arena
//! reader fed hostile bytes must return a structured [`PersistError`]
//! — never panic, never produce an oracle that violates label
//! invariants.

use proptest::prelude::*;

use hoplite::core::store::checksum;
use hoplite::core::{OpenOptions, PersistError};
use hoplite::graph::{gen, traversal, DiGraph, VertexId};
use hoplite::Oracle;

// ---------------------------------------------------------------------
// HOPL v3 arena failure injection
// ---------------------------------------------------------------------

fn random_cyclic_digraph(n: usize, m: usize, seed: u64) -> DiGraph {
    let mut rng = gen::Rng::new(seed);
    let edges: Vec<(VertexId, VertexId)> = (0..m)
        .filter_map(|_| {
            let u = rng.gen_index(n) as VertexId;
            let v = rng.gen_index(n) as VertexId;
            (u != v).then_some((u, v))
        })
        .collect();
    DiGraph::from_edges(n, &edges).expect("edges are in range")
}

/// A serialized v3 arena over a small cyclic digraph.
fn arena_fixture() -> (DiGraph, Vec<u8>) {
    let g = random_cyclic_digraph(36, 120, 15);
    let oracle = Oracle::new(&g);
    let mut buf = Vec::new();
    oracle.save_arena(&mut buf).expect("in-memory write");
    (g, buf)
}

/// After editing header or table bytes, re-seal the two covering
/// checksums so the *semantic* validation under them is what trips.
/// A table cut off by truncation is left unsealed — the reader must
/// reject it before ever checking its sum.
fn reseal_arena(buf: &mut [u8]) {
    let count = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    let table_end = 64 + count * 32;
    if table_end <= buf.len() {
        let table_sum = checksum(&buf[64..table_end]);
        buf[48..56].copy_from_slice(&table_sum.to_le_bytes());
    }
    let header_sum = checksum(&buf[..56]);
    buf[56..64].copy_from_slice(&header_sum.to_le_bytes());
}

/// A scratch file path unique to this process and `tag`.
fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hoplite-fuzz-{}-{tag}.hopl3", std::process::id()))
}

#[test]
fn truncation_at_every_prefix_is_rejected() {
    let (_, buf) = arena_fixture();
    // The header pins the file length, so no strict prefix is a
    // complete file.
    for cut in 0..buf.len() {
        let r = Oracle::open_arena_bytes(&buf[..cut]);
        assert!(r.is_err(), "prefix of {cut} bytes unexpectedly loaded");
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let (_, mut buf) = arena_fixture();
    buf.extend_from_slice(b"EXTRA");
    assert!(
        Oracle::open_arena_bytes(&buf).is_err(),
        "file with trailing bytes must not load"
    );
}

#[test]
fn wrong_magic_and_version_are_rejected() {
    let (_, buf) = arena_fixture();
    let mut bad_magic = buf.clone();
    bad_magic[0] ^= 0xFF;
    assert!(Oracle::open_arena_bytes(&bad_magic).is_err());

    // Magic, version, kind and section count live in the first 16
    // header bytes; changing any of them must fail.
    for i in 0..16 {
        let mut bad = buf.clone();
        bad[i] = bad[i].wrapping_add(1);
        assert!(
            Oracle::open_arena_bytes(&bad).is_err(),
            "header byte {i} accepted"
        );
    }
}

#[test]
fn short_and_pre_v3_files_are_format_errors() {
    // A HOPL v1 header: magic, version 1, kind 4 (Oracle), n = 0.
    let mut v1_header = b"HOPL".to_vec();
    v1_header.extend_from_slice(&1u32.to_le_bytes());
    v1_header.push(4);
    v1_header.extend_from_slice(&0u64.to_le_bytes());
    for (what, bytes) in [
        ("empty", &[][..]),
        ("3-byte", &b"HOP"[..]),
        ("v1-header", &v1_header[..]),
    ] {
        let path = temp_path(what);
        std::fs::write(&path, bytes).unwrap();
        let read = OpenOptions {
            mmap: false,
            ..OpenOptions::default()
        };
        let results = [
            ("open", Oracle::open(&path)),
            ("open_with(read)", Oracle::open_with(&path, &read)),
            ("open_arena_bytes", Oracle::open_arena_bytes(bytes)),
        ];
        std::fs::remove_file(&path).ok();
        for (entry, result) in results {
            let err = result.expect_err("a non-arena file opened");
            assert!(
                matches!(err, PersistError::Format(_)),
                "{what} via {entry}: {err}"
            );
            if what == "v1-header" {
                let msg = err.to_string();
                assert!(
                    msg.contains("version 1") && msg.contains("save_arena"),
                    "{entry}: {msg}"
                );
            }
        }
    }
}

#[test]
fn arena_truncated_section_table_rejected() {
    let (_, buf) = arena_fixture();
    // Cut inside the table, with the header's file_len re-pinned to
    // the truncated size so the table-truncation check (not the
    // length check) is what fires.
    for cut in [65, 64 + 31, 64 + 5 * 32 + 7] {
        let mut bad = buf[..cut].to_vec();
        bad[40..48].copy_from_slice(&(cut as u64).to_le_bytes());
        reseal_arena(&mut bad);
        let err = Oracle::open_arena_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("table"), "cut={cut}: {err}");
    }
    // And raw truncation anywhere must fail too (length pin).
    for cut in [0, 7, 63, buf.len() / 2, buf.len() - 1] {
        assert!(Oracle::open_arena_bytes(&buf[..cut]).is_err(), "cut={cut}");
    }
}

#[test]
fn arena_misaligned_section_offset_rejected() {
    let (_, mut buf) = arena_fixture();
    // Entry 0's offset field sits at table start + 8. Nudge it off
    // the 64-byte grid and re-seal the checksums.
    let at = 64 + 8;
    let offset = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
    buf[at..at + 8].copy_from_slice(&(offset + 4).to_le_bytes());
    reseal_arena(&mut buf);
    let err = Oracle::open_arena_bytes(&buf).unwrap_err();
    assert!(err.to_string().contains("aligned"), "{err}");
}

#[test]
fn arena_overlapping_sections_rejected() {
    let (_, mut buf) = arena_fixture();
    // Point entry 1 at entry 0's bytes: same offset, still in bounds.
    let e0_off = u64::from_le_bytes(buf[64 + 8..64 + 16].try_into().unwrap());
    let at = 64 + 32 + 8;
    buf[at..at + 8].copy_from_slice(&e0_off.to_le_bytes());
    reseal_arena(&mut buf);
    let err = Oracle::open_arena_bytes(&buf).unwrap_err();
    assert!(err.to_string().contains("overlap"), "{err}");
}

#[test]
fn arena_checksum_corruption_rejected() {
    let (_, buf) = arena_fixture();
    // A flipped bit anywhere — header, table, or section payload —
    // must be caught by one of the three checksum layers.
    for at in [10, 20, 50, 70, 64 + 3 * 32 + 25, 520, 600, buf.len() - 5] {
        for bit in [0, 3, 7] {
            let mut bad = buf.clone();
            bad[at] ^= 1 << bit;
            assert!(
                Oracle::open_arena_bytes(&bad).is_err(),
                "byte {at} bit {bit} accepted"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup on disk never panics the file readers,
    /// mapped or read.
    #[test]
    fn loaders_never_panic_on_junk(junk in proptest::collection::vec(any::<u8>(), 0..256)) {
        let path = temp_path(&format!("junk-{}", checksum(&junk)));
        std::fs::write(&path, &junk).expect("write temp junk");
        let _ = Oracle::open(&path);
        let _ = Oracle::open_with(&path, &OpenOptions { mmap: false, ..OpenOptions::default() });
        std::fs::remove_file(&path).ok();
    }

    /// Byte soup dressed as a v3 arena (valid magic + version) never
    /// panics the arena reader either.
    #[test]
    fn arena_reader_never_panics_on_junk(junk in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Oracle::open_arena_bytes(&junk);
        let mut dressed = b"HOPL\x03\x00\x00\x00".to_vec();
        dressed.extend_from_slice(&junk);
        let _ = Oracle::open_arena_bytes(&dressed);
    }

    /// On any random cyclic digraph, the mapped (mmap), owned-read,
    /// and builder oracles agree with BFS ground truth pairwise — the
    /// mmap ≡ owned ≡ BFS equivalence invariant.
    #[test]
    fn mapped_equals_owned_equals_bfs(seed in 0u64..500, n in 8usize..40, m in 10usize..120) {
        let g = random_cyclic_digraph(n, m, seed);
        let built = Oracle::new(&g);
        let mut arena = Vec::new();
        built.save_arena(&mut arena).expect("write arena");
        let path = std::env::temp_dir().join(
            format!("hoplite-fuzz-arena-{}-{seed}-{n}-{m}.hopl3", std::process::id()),
        );
        std::fs::write(&path, &arena).expect("write temp arena");
        let mapped = Oracle::open(&path).expect("mapped open");
        let owned = Oracle::open_with(
            &path,
            &OpenOptions { mmap: false, ..Default::default() },
        )
        .expect("owned open");
        std::fs::remove_file(&path).ok();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let truth = traversal::reaches(&g, u, v);
                prop_assert_eq!(built.reaches(u, v), truth, "built ({},{})", u, v);
                prop_assert_eq!(mapped.reaches(u, v), truth, "mapped ({},{})", u, v);
                prop_assert_eq!(owned.reaches(u, v), truth, "owned ({},{})", u, v);
            }
        }
    }

    /// Single-byte corruption anywhere in a valid file either fails
    /// cleanly or still satisfies every labeling invariant the query
    /// path relies on (sorted, in-bounds hop lists).
    #[test]
    fn bit_flips_fail_closed(pos in 0usize..4096, bit in 0u8..8) {
        let (_, buf) = arena_fixture();
        let pos = pos % buf.len();
        let mut bad = buf.clone();
        bad[pos] ^= 1 << bit;
        if let Ok(oracle) = Oracle::open_arena_bytes(&bad) {
            // A surviving load (a flip in the zero padding between
            // sections, which no checksum covers) must still be
            // internally consistent:
            // sorted labels (the merge-intersection precondition).
            let l = oracle.inner().labeling();
            for v in 0..l.num_vertices() as u32 {
                prop_assert!(l.out_label(v).windows(2).all(|w| w[0] < w[1]));
                prop_assert!(l.in_label(v).windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
