//! Property tests of the word-wide FNV-1a fold: `Fnv64::words`,
//! `Fnv64::le_words` and the `of_*` helpers equal a spelled-out per-word
//! fold on every slice length from 0 to 1100 words, from every start
//! offset within a chunk, and on the fills that steer the fold between its
//! zero-chunk and word-by-word paths: all zero, all random, one non-zero
//! word at each position (the last word included), alternating runs, and
//! runs of `u64::MAX`.
//!
//! Offline std-only: the random properties run over many cases drawn from
//! the deterministic `SimRng` (splitmix64). A failing case panics with the
//! property name, the case's seed, and the generated inputs, so it
//! reproduces from the message alone.

use svagc_kernel::Fnv64;
use svagc_metrics::SimRng;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
const MAX_WORDS: usize = 1100;
/// Words per chunk of the fold's zero test.
const CHUNK: usize = 8;

/// Run `property` on `cases` generated cases. Case `i` draws its inputs
/// from `SimRng::seed_from_u64(base_seed + i)`; a failure reports that
/// seed and the property's description of the case.
fn check(
    name: &str,
    base_seed: u64,
    cases: u64,
    property: impl Fn(&mut SimRng) -> Result<(), String>,
) {
    for i in 0..cases {
        let seed = base_seed + i;
        if let Err(case) = property(&mut SimRng::seed_from_u64(seed)) {
            panic!("property `{name}` failed on case {i} (seed {seed:#x}): {case}");
        }
    }
}

/// The reference: one `(h ^ w) * P` step per word from `h`.
fn reference(h: u64, ws: &[u64]) -> u64 {
    ws.iter().fold(h, |h, &w| (h ^ w).wrapping_mul(PRIME))
}

fn le_bytes(ws: &[u64]) -> Vec<u8> {
    ws.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Every entry point on `ws`, hashed from `off` words into a buffer (so
/// the slice starts anywhere within a chunk, and the byte view at any
/// 8-byte offset), against the reference; `split` also folds the slice in
/// two calls to check the running state carries across them.
fn agree(ws: &[u64], off: usize, split: usize) -> Result<(), String> {
    let want = reference(OFFSET, ws);
    let mut buf = vec![0x5a5a_5a5a_5a5a_5a5a; off];
    buf.extend_from_slice(ws);
    let view = &buf[off..];
    let bytes = le_bytes(&buf);
    let byte_view = &bytes[off * 8..];

    let mut two_words = Fnv64::new();
    two_words.words(&view[..split]);
    two_words.words(&view[split..]);
    let mut two_bytes = Fnv64::new();
    two_bytes.le_words(&byte_view[..split * 8]);
    two_bytes.le_words(&byte_view[split * 8..]);

    let got = [
        ("of_words", Fnv64::of_words(view)),
        ("of_le_words", Fnv64::of_le_words(byte_view)),
        ("words in two calls", two_words.finish()),
        ("le_words in two calls", two_bytes.finish()),
    ];
    for (what, h) in got {
        if h != want {
            return Err(format!(
                "{what}: {h:#x} != {want:#x} (len {}, offset {off}, split {split}, words {ws:x?})",
                ws.len()
            ));
        }
    }
    Ok(())
}

fn assert_agree(ws: &[u64], off: usize, split: usize) {
    if let Err(e) = agree(ws, off, split) {
        panic!("{e}");
    }
}

/// A fill that steers the fold between its two paths.
fn fill(rng: &mut SimRng, len: usize) -> Vec<u64> {
    match rng.gen_range(0..5u32) {
        0 => vec![0; len],
        1 => (0..len).map(|_| rng.next_u64()).collect(),
        2 => {
            let mut ws = vec![0; len];
            if len > 0 {
                ws[rng.gen_range(0..len)] = rng.next_u64() | 1;
            }
            ws
        }
        // Alternating runs of zero and random words.
        3 => runs(rng, len, |rng| rng.next_u64() | 1),
        // Alternating runs of zero and `u64::MAX` words.
        _ => runs(rng, len, |_| u64::MAX),
    }
}

/// `len` words in alternating runs of 1–20 zero and 1–20 `word()` words.
fn runs(rng: &mut SimRng, len: usize, word: impl Fn(&mut SimRng) -> u64) -> Vec<u64> {
    let mut ws = Vec::with_capacity(len);
    let mut zero = rng.gen_bool(0.5);
    while ws.len() < len {
        let run = rng.gen_range(1..21usize).min(len - ws.len());
        for _ in 0..run {
            let w = if zero { 0 } else { word(rng) };
            ws.push(w);
        }
        zero = !zero;
    }
    ws
}

#[test]
fn empty_input_is_the_offset_basis() {
    assert_eq!(Fnv64::of_words(&[]), OFFSET);
    assert_eq!(Fnv64::of_le_words(&[]), OFFSET);
}

/// All-zero slices of every length from every start offset: whole zero
/// chunks plus every tail length.
#[test]
fn zero_slices_of_every_length_and_offset() {
    let zeros = vec![0u64; MAX_WORDS];
    for len in 0..=MAX_WORDS {
        for off in 0..CHUNK {
            assert_agree(&zeros[..len], off, len / 2);
        }
    }
}

/// One non-zero word at every position of every length up to ten chunks
/// and a tail, and at every lane of the longest slice's chunks (a stride
/// of 13 visits each lane) and its last two chunks and tail: a word the
/// zero test misses anywhere changes the sum.
#[test]
fn one_non_zero_word_at_every_position() {
    let short = (1..=10 * CHUNK + 7).flat_map(|len| (0..len).map(move |pos| (len, pos)));
    let long = (0..MAX_WORDS)
        .step_by(13)
        .chain(MAX_WORDS - 2 * CHUNK - 4..MAX_WORDS);
    for (len, pos) in short.chain(long.map(|pos| (MAX_WORDS, pos))) {
        let mut ws = vec![0u64; len];
        for w in [1, 1 << 63, u64::MAX] {
            ws[pos] = w;
            assert_agree(&ws, pos % CHUNK, pos);
        }
    }
}

/// Random lengths, offsets, split points and fills.
#[test]
fn every_fill_matches_the_per_word_fold() {
    check(
        "every_fill_matches_the_per_word_fold",
        0xF_0000,
        2048,
        |rng| {
            let len = rng.gen_range(0..MAX_WORDS + 1);
            let ws = fill(rng, len);
            let off = rng.gen_range(0..CHUNK);
            let split = rng.gen_range(0..len + 1);
            agree(&ws, off, split)
        },
    );
}

/// The state a fold starts from carries through zero chunks: folding a
/// zero slice after arbitrary words equals the reference from that state.
#[test]
fn zero_chunks_continue_any_running_state() {
    check(
        "zero_chunks_continue_any_running_state",
        0xF_1000,
        512,
        |rng| {
            let head: Vec<u64> = (0..rng.gen_range(0..20usize))
                .map(|_| rng.next_u64())
                .collect();
            let zeros = vec![0u64; rng.gen_range(0..200usize)];
            let mut h = Fnv64::new();
            h.words(&head);
            h.le_words(&le_bytes(&zeros));
            let want = reference(reference(OFFSET, &head), &zeros);
            if h.finish() == want {
                Ok(())
            } else {
                Err(format!("head {head:x?}, {} zero words", zeros.len()))
            }
        },
    );
}
