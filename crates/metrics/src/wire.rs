//! Compact wire codec for the latency histogram the accumulators and the
//! pipeline stats carry.
//!
//! Built on [`vv_store::wire`] (little-endian integers, `u32`-length
//! strings, bounds-checked [`Reader`]), so the encoding composes with the
//! store's segment framing and with the `vv-server` protocol.
//!
//! # Encodings
//!
//! [`LatencyHistogram`] is encoded **sparsely** — most of its 65 buckets
//! are empty in practice:
//!
//! ```text
//! populated  u8                      number of non-empty buckets
//! buckets    populated × (u8, u64)   (slot, count), slots strictly increasing
//! max_ms     f64                     exact observed maximum
//! ```
//!
//! Slots must be strictly increasing and in range, so every histogram has
//! exactly one canonical encoding and a decoded histogram re-encodes to
//! the same bytes.

use crate::accumulate::LatencyHistogram;
use vv_store::wire::{Reader, WireError, Writer};

/// Append a histogram's canonical sparse encoding to `w`.
pub fn encode_histogram(histogram: &LatencyHistogram, w: &mut Writer) {
    let buckets = histogram.bucket_counts();
    let populated = buckets.iter().filter(|&&c| c != 0).count();
    debug_assert!(populated <= buckets.len());
    w.put_u8(populated as u8);
    for (slot, &count) in buckets.iter().enumerate() {
        if count != 0 {
            w.put_u8(slot as u8);
            w.put_u64(count);
        }
    }
    w.put_f64(histogram.max_ms());
}

/// Decode a histogram encoded by [`encode_histogram`]. Rejects out-of-range
/// or non-increasing slots, so the encoding stays canonical.
pub fn decode_histogram(r: &mut Reader<'_>) -> Result<LatencyHistogram, WireError> {
    const SLOTS: usize = LatencyHistogram::BUCKET_COUNT + 1;
    let populated = r.get_u8("histogram bucket count")? as usize;
    if populated > SLOTS {
        return Err(WireError {
            context: "histogram bucket count",
        });
    }
    let mut buckets = [0u64; SLOTS];
    let mut previous: Option<usize> = None;
    for _ in 0..populated {
        let slot = r.get_u8("histogram bucket slot")? as usize;
        if slot >= SLOTS || previous.is_some_and(|p| slot <= p) {
            return Err(WireError {
                context: "histogram bucket slot",
            });
        }
        let count = r.get_u64("histogram bucket value")?;
        if count == 0 {
            return Err(WireError {
                context: "histogram bucket value",
            });
        }
        buckets[slot] = count;
        previous = Some(slot);
    }
    let max_ms = r.get_f64("histogram max")?;
    Ok(LatencyHistogram::from_raw(buckets, max_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_histogram() -> LatencyHistogram {
        let mut histogram = LatencyHistogram::default();
        for i in 0..300 {
            histogram.observe_ms(40.0 * i as f64);
        }
        histogram.observe_ms(1_000_000.0); // overflow bucket
        histogram
    }

    #[test]
    fn histogram_round_trips_bit_exactly() {
        for histogram in [LatencyHistogram::default(), busy_histogram()] {
            let mut w = Writer::new();
            encode_histogram(&histogram, &mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let decoded = decode_histogram(&mut r).unwrap();
            assert!(r.is_exhausted());
            assert_eq!(decoded, histogram);
            assert_eq!(decoded.p99(), histogram.p99());
            // Canonical: re-encoding reproduces the same bytes.
            let mut w2 = Writer::new();
            encode_histogram(&decoded, &mut w2);
            assert_eq!(w2.into_bytes(), bytes);
        }
    }

    #[test]
    fn histogram_decode_rejects_malformed_slots() {
        // Out-of-range slot.
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u8(80);
        w.put_u64(1);
        w.put_f64(1.0);
        let bytes = w.into_bytes();
        assert!(decode_histogram(&mut Reader::new(&bytes)).is_err());

        // Non-increasing slots.
        let mut w = Writer::new();
        w.put_u8(2);
        w.put_u8(3);
        w.put_u64(1);
        w.put_u8(3);
        w.put_u64(1);
        w.put_f64(1.0);
        let bytes = w.into_bytes();
        assert!(decode_histogram(&mut Reader::new(&bytes)).is_err());

        // Truncation at every offset fails cleanly.
        let mut w = Writer::new();
        encode_histogram(&busy_histogram(), &mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                decode_histogram(&mut Reader::new(&bytes[..cut])).is_err(),
                "cut at {cut}"
            );
        }
    }
}
