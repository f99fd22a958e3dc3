//! Decoder fuzz: arbitrary bytes fed to every wire decoder must yield
//! `Ok` or a clean `DecodeError` — never a panic, a hang, or an
//! allocation proportional to a length the peer merely *claimed*.
//!
//! Three input families: pure noise, structurally-plausible noise
//! (valid-looking length prefixes over garbage), and mutated valid
//! frames (one byte flipped anywhere in a well-formed encoding — the
//! single-bit-rot case the chaos suite's garbled-frame test sends
//! end-to-end).
//!
//! The frame splitter gets the same treatment: `split_frame` on arbitrary
//! bytes, and on valid frame streams cut in two at every offset.

use lec_core::{Mode, PointEstimate};
use lec_plan::Query;
use lec_plan::{ColumnRef, JoinMethod, PlanNode, QueryProfile, WorkloadGenerator};
use lec_prob::Distribution;
use lec_serviced::protocol::{
    decode_dist, decode_mode, decode_plan, decode_query, decode_query_into, decode_response,
    encode_mode, encode_plan, encode_query, encode_response, frame, op, split_frame, DecodeError,
    Reader, Writer, MAX_FRAME, MAX_PLAN_DEPTH,
};
use proptest::prelude::*;

fn decode_everything(bytes: &[u8]) {
    // Each decoder gets its own cursor; all that matters is that every
    // one of them returns (Ok or Err) without panicking.
    let _ = decode_query(&mut Reader::new(bytes));
    let _ = decode_mode(&mut Reader::new(bytes));
    let _ = decode_plan(&mut Reader::new(bytes));
    let _ = decode_dist(&mut Reader::new(bytes));
    let _ = decode_response(&mut Reader::new(bytes));
}

/// A valid OPTIMIZE-style payload (mode then query) to mutate.
fn valid_payload() -> Vec<u8> {
    let mut g = lec_catalog::CatalogGenerator::new(31);
    let catalog = g.generate(10);
    let mut wg = WorkloadGenerator::new(0x5EED);
    let ids = g.pick_tables(&catalog, 4);
    let query = wg.gen_query(&catalog, &ids, &QueryProfile::default());
    let mut w = Writer::new();
    encode_mode(&mut w, &Mode::Lsc(PointEstimate::Mean));
    encode_query(&mut w, &query);
    w.into_bytes()
}

fn query_bytes(query: &Query) -> Vec<u8> {
    let mut w = Writer::new();
    encode_query(&mut w, query);
    w.into_bytes()
}

/// A query larger than [`valid_payload`]'s, every table filtered and every
/// selectivity three buckets wide: the buffer the reused decoder starts
/// from, so a fuzzed frame overwrites distributions in place.
fn warm_query() -> Query {
    let mut g = lec_catalog::CatalogGenerator::new(31);
    let catalog = g.generate(10);
    let ids = g.pick_tables(&catalog, 8);
    let profile = QueryProfile {
        sel_buckets: 3,
        p_filter: 1.0,
        ..QueryProfile::default()
    };
    WorkloadGenerator::new(0x5EED).gen_query(&catalog, &ids, &profile)
}

/// Every distribution of `q` holds `from_parts_exact`'s invariants.
fn distributions_are_valid(q: &Query) -> bool {
    let filters = q.tables.iter().filter_map(|t| t.filter.as_ref());
    let dists = filters.map(|f| &f.selectivity);
    let mut dists = dists.chain(q.joins.iter().map(|j| &j.selectivity));
    dists.all(|d| Distribution::from_parts_exact(d.support().to_vec(), d.probs().to_vec()).is_ok())
}

/// Decoding `bytes` into a warm buffer accepts or rejects exactly as the
/// fresh decoder does, with the same error, the same bytes consumed and,
/// when accepted, the same query bit for bit.  A rejection leaves every
/// distribution in the buffer valid, and the buffer still decodes a
/// valid query exactly.  Checked from the start of `bytes`, and after a
/// mode when one decodes there.
fn reused_decoder_agrees(bytes: &[u8]) -> Result<(), TestCaseError> {
    let warm = warm_query();
    let mut after_mode = Reader::new(bytes);
    let starts = match decode_mode(&mut after_mode) {
        Ok(_) => vec![0, bytes.len() - after_mode.remaining()],
        Err(_) => vec![0],
    };
    for start in starts {
        let (mut buf, mut spares) = (warm.clone(), Vec::new());
        let (mut fresh_r, mut reused_r) =
            (Reader::new(&bytes[start..]), Reader::new(&bytes[start..]));
        let fresh = decode_query(&mut fresh_r);
        let reused = decode_query_into(&mut reused_r, &mut buf, &mut spares);
        prop_assert_eq!(
            fresh_r.remaining(),
            reused_r.remaining(),
            "from byte {}",
            start
        );
        match (fresh, reused) {
            (Ok(q), Ok(())) => prop_assert_eq!(query_bytes(&buf), query_bytes(&q)),
            (Err(want), Err(got)) => {
                prop_assert_eq!(got, want, "from byte {}", start);
                prop_assert!(distributions_are_valid(&buf), "from byte {}", start);
            }
            (fresh, reused) => {
                prop_assert!(false, "fresh {:?}, reused {:?}", fresh.map(|_| ()), reused)
            }
        }
        let again = query_bytes(&warm);
        decode_query_into(&mut Reader::new(&again), &mut buf, &mut spares).expect("a valid query");
        prop_assert_eq!(
            query_bytes(&buf),
            again,
            "the buffer decodes again after byte {}",
            start
        );
    }
    Ok(())
}

/// A 6-table bushy plan that reaches every arm of the plan decoder: both
/// scans, a sort at the root and one below a join, all four join methods.
fn plan() -> PlanNode {
    let [sm, gh, nl, bnl] = JoinMethod::ALL;
    let (scan, ix) = (PlanNode::seq_scan, PlanNode::index_scan);
    let sorted_ix = PlanNode::sort(ix(1), ColumnRef::new(1, 0));
    PlanNode::sort(
        PlanNode::join(
            bnl,
            PlanNode::join(sm, scan(0), sorted_ix),
            PlanNode::join(
                nl,
                PlanNode::join(gh, scan(2), ix(3)),
                PlanNode::join(sm, scan(4), scan(5)),
            ),
        ),
        ColumnRef::new(5, 1),
    )
}

fn plan_bytes(plan: &PlanNode) -> Vec<u8> {
    let mut w = Writer::new();
    encode_plan(&mut w, plan);
    w.into_bytes()
}

/// A plan decoded from the front of `bytes` re-encodes to exactly the
/// bytes it consumed.
fn plan_reencodes(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut r = Reader::new(bytes);
    if let Ok(plan) = decode_plan(&mut r) {
        let consumed = &bytes[..bytes.len() - r.remaining()];
        prop_assert_eq!(plan_bytes(&plan), consumed, "{}", plan.compact());
    }
    Ok(())
}

/// A valid OPTIMIZE_OK-style payload (a response) to mutate, and the
/// offset of its cache-decision tag.
fn valid_response() -> (Vec<u8>, usize) {
    let resp = lec_service::ServeResponse {
        plan: plan(),
        cost: 1234.5,
        stats: lec_core::SearchStats::default(),
        decision: lec_service::CacheDecision::Recomputed,
    };
    // plan, f64 cost, then the decision tag.
    let tag_at = plan_bytes(&resp.plan).len() + 8;
    let mut w = Writer::new();
    encode_response(&mut w, &resp);
    (w.into_bytes(), tag_at)
}

/// Decision tags 1 (coalesced) and 2 (weak-key revalidation) are retired:
/// a peer still sending them gets a clean `BadTag`, and every other byte
/// value there decodes or errors without a panic.
#[test]
fn the_retired_decision_tag_is_a_clean_error() {
    let (mut payload, tag_at) = valid_response();
    assert!(decode_response(&mut Reader::new(&payload)).is_ok());
    for tag in 0..=u8::MAX {
        payload[tag_at] = tag;
        let got = decode_response(&mut Reader::new(&payload));
        match tag {
            0 | 3 | 4 => assert!(got.is_ok(), "tag {tag}"),
            _ => assert_eq!(
                got.err(),
                Some(DecodeError::BadTag("cache decision")),
                "tag {tag}"
            ),
        }
    }
}

/// Mode tags 9 and 10 named the randomized searches (iterative
/// improvement, simulated annealing).  Both are retired, not reused: a
/// peer still sending them gets a clean `BadTag` before any of the old
/// mode's parameters are read.
#[test]
fn the_retired_mode_tags_are_clean_errors() {
    for tag in [9u8, 10] {
        // The tag, then the old parameters' 48 bytes.
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&[0; 48]);
        assert_eq!(
            decode_mode(&mut Reader::new(&bytes)).err(),
            Some(DecodeError::BadTag("mode")),
            "mode tag {tag}"
        );
    }
}

/// Every strict prefix of a plan's bytes — a join missing its inner
/// operand, or its outer, a sort missing its input — is a clean
/// `Truncated`: the preorder encoding is prefix-free.
#[test]
fn a_plan_cut_short_is_truncated() {
    let bytes = plan_bytes(&plan());
    assert_eq!(decode_plan(&mut Reader::new(&bytes)), Ok(plan()));
    for cut in 0..bytes.len() {
        let got = decode_plan(&mut Reader::new(&bytes[..cut]));
        assert_eq!(got, Err(DecodeError::Truncated), "cut at {cut}");
    }
}

/// A node at depth `MAX_PLAN_DEPTH` decodes; one deeper is refused,
/// under nested sorts and under a left-deep join chain alike.
#[test]
fn plans_past_max_plan_depth_are_too_deep() {
    let too_deep = Err(DecodeError::BadValue("plan tree too deep"));
    let sorts = |n| {
        (0..n).fold(PlanNode::seq_scan(0), |p, _| {
            PlanNode::sort(p, ColumnRef::new(0, 0))
        })
    };
    let joins = |n| {
        (1..=n).fold(PlanNode::seq_scan(0), |p, t| {
            PlanNode::join(JoinMethod::ALL[t % 4], p, PlanNode::index_scan(t))
        })
    };
    for nest in [sorts, joins] {
        let deepest = nest(MAX_PLAN_DEPTH);
        let decoded = decode_plan(&mut Reader::new(&plan_bytes(&deepest)));
        assert_eq!(decoded, Ok(deepest));
        for n in [MAX_PLAN_DEPTH + 1, MAX_PLAN_DEPTH + 8] {
            let decoded = decode_plan(&mut Reader::new(&plan_bytes(&nest(n))));
            assert_eq!(decoded, too_deep, "{n} deep");
        }
    }
}

#[test]
fn split_frame_respects_boundaries() {
    let mut buf = Vec::new();
    assert_eq!(split_frame(&buf), Ok(None));
    buf.extend_from_slice(&frame(op::PING, &[]));
    buf.extend_from_slice(&frame(op::DRAIN, &[]));
    assert_eq!(split_frame(&buf), Ok(Some((&[op::PING][..], 5))));
    assert_eq!(split_frame(&buf[5..]), Ok(Some((&[op::DRAIN][..], 5))));
    assert_eq!(split_frame(&buf[10..]), Ok(None));
}

#[test]
fn split_frame_rejects_illegal_lengths() {
    let zero = 0u32.to_le_bytes();
    assert!(split_frame(&zero).is_err());
    let huge = (MAX_FRAME + 1).to_le_bytes();
    assert!(split_frame(&huge).is_err());
}

#[test]
fn split_frame_waits_for_partial_frames() {
    let full = frame(op::PING, &[1, 2, 3]);
    for cut in 0..full.len() {
        assert_eq!(split_frame(&full[..cut]), Ok(None), "cut at {cut}");
    }
}

/// Split every complete frame off `stream` the way a connection does: a
/// first read delivers `stream[..cut]`, a second the rest, and the bytes
/// of a frame the first read left incomplete wait in the buffer.
fn frames_across_a_cut(stream: &[u8], cut: usize) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut pos = 0;
    for end in [cut, stream.len()] {
        while let Some((frame, used)) = split_frame(&stream[pos..end]).expect("valid prefixes") {
            frames.push(frame.to_vec());
            pos += used;
        }
    }
    assert_eq!(pos, stream.len(), "no byte is left behind");
    frames
}

proptest! {
    #[test]
    fn split_frame_never_panics_and_stays_inside_its_input(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        claimed in prop_oneof![0u32..96, MAX_FRAME - 2..MAX_FRAME + 3],
        lead_with_claim in any::<bool>(),
    ) {
        // Pure noise almost always announces an oversized frame, so half
        // the inputs lead with a prefix near the bytes that follow it or
        // near the cap instead.
        let mut input = if lead_with_claim { claimed.to_le_bytes().to_vec() } else { Vec::new() };
        input.extend_from_slice(&bytes);
        if let Ok(Some((frame, used))) = split_frame(&input) {
            prop_assert!(used <= input.len());
            prop_assert!(!frame.is_empty() && frame.len() < used);
            let within = input.as_ptr_range();
            let got = frame.as_ptr_range();
            prop_assert!(within.start <= got.start && got.end <= within.end);
            prop_assert_eq!(frame, &input[used - frame.len()..used]);
        }
    }

    #[test]
    fn frames_survive_every_two_piece_cut(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..6),
    ) {
        let mut stream = Vec::new();
        let mut want = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            let opcode = 1 + i as u8;
            stream.extend_from_slice(&frame(opcode, body));
            want.push([&[opcode][..], body].concat());
        }
        for cut in 0..=stream.len() {
            prop_assert_eq!(&frames_across_a_cut(&stream, cut), &want, "cut at {}", cut);
        }
    }

    #[test]
    fn pure_noise_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        decode_everything(&bytes);
    }

    #[test]
    fn plausible_length_prefixes_never_panic(
        claimed in 0u32..=(1 << 21),
        bytes in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        // A frame that leads with a length/count field chosen adversarially
        // (often far larger than the payload that follows).
        let mut framed = claimed.to_le_bytes().to_vec();
        framed.extend_from_slice(&(claimed as u64).to_le_bytes());
        framed.extend_from_slice(&bytes);
        decode_everything(&framed);
    }

    #[test]
    fn single_byte_mutations_of_valid_frames_never_panic(
        offset in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut payload = valid_payload();
        let idx = offset % payload.len();
        payload[idx] ^= mask;
        decode_everything(&payload);
        // The mode half, when it survives the flip, must still decode as
        // *some* mode the reader fully consumes — and the query decoder
        // must cope with the cursor landing anywhere afterwards.
        let mut r = Reader::new(&payload);
        if decode_mode(&mut r).is_ok() {
            let _ = decode_query(&mut r);
            let _ = r.finish();
        }
        let (mut response, _) = valid_response();
        let idx = offset % response.len();
        response[idx] ^= mask;
        decode_everything(&response);
        plan_reencodes(&response)?;
    }

    #[test]
    fn truncations_of_valid_frames_never_panic(cut_frac in 0.0f64..1.0) {
        let payload = valid_payload();
        let cut = ((payload.len() as f64) * cut_frac) as usize;
        decode_everything(&payload[..cut.min(payload.len())]);
        let (response, _) = valid_response();
        let cut = ((response.len() as f64) * cut_frac) as usize;
        decode_everything(&response[..cut.min(response.len())]);
        plan_reencodes(&response[..cut.min(response.len())])?;
    }

    /// The four families' inputs through a reused query buffer: noise,
    /// a plausible length prefix, a valid payload with one byte flipped
    /// and one cut short.
    #[test]
    fn a_reused_buffer_decodes_exactly_as_a_fresh_query(
        noise in prop::collection::vec(any::<u8>(), 0..512),
        claimed in 0u32..=(1 << 21),
        tail in prop::collection::vec(any::<u8>(), 0..128),
        offset in any::<usize>(),
        mask in 1u8..=255,
        cut_frac in 0.0f64..1.0,
    ) {
        reused_decoder_agrees(&noise)?;
        let mut framed = claimed.to_le_bytes().to_vec();
        framed.extend_from_slice(&(claimed as u64).to_le_bytes());
        framed.extend_from_slice(&tail);
        reused_decoder_agrees(&framed)?;
        for payload in [valid_payload(), query_bytes(&warm_query())] {
            let mut flipped = payload.clone();
            flipped[offset % payload.len()] ^= mask;
            reused_decoder_agrees(&flipped)?;
            let cut = ((payload.len() as f64) * cut_frac) as usize;
            reused_decoder_agrees(&payload[..cut.min(payload.len())])?;
        }
    }

    /// One or two byte flips inside the plan's own bytes: about half of a
    /// whole response's single flips land past them.
    #[test]
    fn mutated_plans_decode_cleanly_and_reencode_exactly(
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..3),
    ) {
        let mut bytes = plan_bytes(&plan());
        for (offset, mask) in flips {
            let idx = offset % bytes.len();
            bytes[idx] ^= mask;
        }
        plan_reencodes(&bytes)?;
    }
}
