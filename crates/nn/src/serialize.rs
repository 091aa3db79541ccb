//! Network state persistence, plus GEMM-capture wire codecs.
//!
//! [`save_state`]/[`load_state`] use a deliberately simple binary
//! container (`PPNNSTA1` magic, per-tensor shape + little-endian `f32`
//! payloads) holding a network's parameters **plus** its non-trainable
//! buffers (batch-norm running statistics). This is the bit-exact
//! inference state of a trained network: what the pipeline's training
//! cache persists and what Table I's delay sweep rolls back to.
//! Restoring parameters alone would change batch-norm inference
//! outputs.
//!
//! [`write_captures`]/[`read_captures`] are the bit-exact wire codecs
//! for [`GemmCapture`] traces, so captured forward passes can live in
//! the same content-addressed store as every other pipeline artifact.

use crate::layers::GemmCapture;
use crate::model::Network;
use crate::tensor::Tensor;
use charstore::wire::{self, Reader};
use std::io;

const STATE_MAGIC: &[u8; 8] = b"PPNNSTA1";

/// Encodes every trainable parameter *and* every non-trainable state
/// buffer of `net` — the complete inference state of a trained network:
/// the parameter count, then per parameter its rank, shape and
/// little-endian `f32` payload, then the buffer count and per buffer
/// its length and payload.
#[must_use]
pub fn save_state(net: &mut Network) -> Vec<u8> {
    let (mut params, mut buffers) = (0, 0);
    net.visit_params(&mut |_| params += 1);
    net.visit_buffers(&mut |_| buffers += 1);
    let mut out = STATE_MAGIC.to_vec();
    wire::put_usize(&mut out, params);
    net.visit_params(&mut |p| {
        wire::put_usize(&mut out, p.value.shape().len());
        for &dim in p.value.shape() {
            wire::put_usize(&mut out, dim);
        }
        put_f32s(&mut out, p.value.data());
    });
    wire::put_usize(&mut out, buffers);
    net.visit_buffers(&mut |b| {
        wire::put_usize(&mut out, b.len());
        put_f32s(&mut out, b);
    });
    out
}

fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(4 * values.len());
    for &v in values {
        wire::put_f32(out, v);
    }
}

/// Takes `len` `f32`s, once all of their bytes are present.
fn f32s(r: &mut Reader<'_>, len: usize) -> io::Result<Vec<f32>> {
    let byte_len = len
        .checked_mul(4)
        .ok_or_else(|| wire::invalid("payload length overflows"))?;
    Ok(r.take(byte_len)?
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

/// Decodes the parameter tensors and buffers of a state, checking only
/// that they are well formed.
fn decode_state(bytes: &[u8]) -> io::Result<(Vec<Tensor>, Vec<Vec<f32>>)> {
    let mut r = Reader::new(bytes);
    if r.take(STATE_MAGIC.len())? != STATE_MAGIC {
        return Err(wire::invalid("not a PowerPruning network state"));
    }
    // A tensor costs at least its rank field, a shape dimension and a
    // buffer length 8 bytes each, a buffer element 4.
    let count = r.bounded_len(8)?;
    let mut tensors = Vec::with_capacity(count);
    for idx in 0..count {
        let rank = r.bounded_len(8)?;
        let mut shape = Vec::with_capacity(rank);
        let mut len = 1usize;
        for _ in 0..rank {
            let dim = usize::try_from(r.u64()?)
                .map_err(|_| wire::invalid(format!("tensor {idx}: dimension overflows")))?;
            len = len
                .checked_mul(dim)
                .ok_or_else(|| wire::invalid(format!("tensor {idx}: element count overflows")))?;
            shape.push(dim);
        }
        let data = f32s(&mut r, len)?;
        tensors.push(Tensor::from_vec(&shape, data));
    }
    let count = r.bounded_len(8)?;
    let mut buffers = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.bounded_len(4)?;
        buffers.push(f32s(&mut r, len)?);
    }
    r.finish()?;
    Ok((tensors, buffers))
}

/// Reads a full network state written by [`save_state`] into `net`,
/// which must have the identical structure (same parameters *and* the
/// same buffer layout).
///
/// Hardened against hostile or truncated input through
/// [`charstore::wire::Reader`]: every count is bounded by the bytes
/// that remain before anything is allocated for it, element counts are
/// multiplied out with overflow checks, a payload is taken only once
/// all of its bytes are present, and trailing bytes are rejected.
/// Nothing is assigned until the whole state has decoded and every
/// shape and buffer length matches, so on any error `net` is left
/// untouched.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on bad magic, implausible or
/// truncated contents, trailing bytes or a structure mismatch.
pub fn load_state(net: &mut Network, bytes: &[u8]) -> io::Result<()> {
    let (tensors, buffers) = decode_state(bytes)?;
    let mut shapes: Vec<Vec<usize>> = Vec::new();
    net.visit_params(&mut |p| shapes.push(p.value.shape().to_vec()));
    if shapes.len() != tensors.len() {
        return Err(wire::invalid(format!(
            "state has {} tensors, network has {} parameters",
            tensors.len(),
            shapes.len()
        )));
    }
    for (idx, (shape, t)) in shapes.iter().zip(&tensors).enumerate() {
        if shape[..] != *t.shape() {
            return Err(wire::invalid(format!(
                "parameter {idx} shape {shape:?} != state shape {:?}",
                t.shape()
            )));
        }
    }
    let mut lens: Vec<usize> = Vec::new();
    net.visit_buffers(&mut |b| lens.push(b.len()));
    if lens.len() != buffers.len() {
        return Err(wire::invalid(format!(
            "state has {} buffers, network has {} buffers",
            buffers.len(),
            lens.len()
        )));
    }
    for (idx, (&len, decoded)) in lens.iter().zip(&buffers).enumerate() {
        if len != decoded.len() {
            return Err(wire::invalid(format!(
                "buffer {idx} length {len} != state length {}",
                decoded.len()
            )));
        }
    }
    let mut buffers = buffers.iter();
    net.visit_buffers(&mut |b| b.copy_from_slice(buffers.next().expect("counts checked")));
    let mut tensors = tensors.into_iter();
    net.visit_params(&mut |p| p.value = tensors.next().expect("counts checked"));
    Ok(())
}

/// Encodes a capture trace — the quantized GEMM operand streams of one
/// forward pass — bit-exactly onto `out`.
pub fn write_captures(captures: &[GemmCapture], out: &mut Vec<u8>) {
    wire::put_usize(out, captures.len());
    for c in captures {
        wire::put_str(out, &c.layer);
        wire::put_usize(out, c.m);
        wire::put_usize(out, c.k);
        wire::put_usize(out, c.n);
        // i8 codes share the u8 byte representation.
        wire::put_usize(out, c.weight_codes.len());
        out.extend(c.weight_codes.iter().map(|&w| w as u8));
        wire::put_usize(out, c.act_codes.len());
        out.extend_from_slice(&c.act_codes);
    }
}

/// Decodes a capture trace written by [`write_captures`].
///
/// Hardened like [`load_state`]: counts are bounded against the
/// remaining input before any allocation, and each GEMM's code vectors
/// must match its declared `m×k` / `k×n` geometry.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on truncation, implausible
/// counts or geometry mismatches.
pub fn read_captures(r: &mut Reader<'_>) -> io::Result<Vec<GemmCapture>> {
    // Each capture costs at least the three u64 dims + two u64 lengths
    // + the u64 layer-name length = 48 bytes.
    let count = r.bounded_len(48)?;
    let mut out = Vec::with_capacity(count);
    for idx in 0..count {
        let layer = r.str()?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
        let n = r.u64()? as usize;
        let w_len = r.bounded_len(1)?;
        let weight_codes: Vec<i8> = r.take(w_len)?.iter().map(|&b| b as i8).collect();
        let a_len = r.bounded_len(1)?;
        let act_codes: Vec<u8> = r.take(a_len)?.to_vec();
        let geometry_ok = m.checked_mul(k).is_some_and(|mk| mk == weight_codes.len())
            && k.checked_mul(n).is_some_and(|kn| kn == act_codes.len());
        if !geometry_ok {
            return Err(wire::invalid(format!(
                "capture {idx}: geometry {m}x{k}x{n} does not match code vectors ({}, {})",
                weight_codes.len(),
                act_codes.len()
            )));
        }
        out.push(GemmCapture {
            layer,
            weight_codes,
            act_codes,
            m,
            k,
            n,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn save_load_round_trips() {
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let x = Tensor::full(&[1, 1, 8, 8], 0.3);
        let before = net.predict(&x);

        let buf = save_state(&mut net);

        let mut other = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(99));
        assert_ne!(other.predict(&x).data(), before.data());
        load_state(&mut other, buf.as_slice()).expect("load");
        assert_eq!(other.predict(&x).data(), before.data());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let err = load_state(&mut net, &b"NOTMAGIC"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn structure_mismatch_is_rejected() {
        let mut a = models::tiny_cnn("a", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let state = save_state(&mut a);

        // A rejected load leaves the target untouched, although every
        // parameter before the classifier would fit.
        let mut target = models::tiny_cnn("b", 1, 8, 5, &mut StdRng::seed_from_u64(5));
        let before = save_state(&mut target);
        assert!(load_state(&mut target, state.as_slice()).is_err());
        let after = save_state(&mut target);
        assert_eq!(after, before, "a rejected load changed the network");
    }

    #[test]
    fn truncated_file_is_rejected() {
        // Every strict prefix of a state file is truncated input,
        // wherever the cut falls: `InvalidData`, with the target network
        // untouched.
        let mut source = models::tiny_cnn("a", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let state = save_state(&mut source);
        let mut target = models::tiny_cnn("a", 1, 8, 3, &mut StdRng::seed_from_u64(99));
        let before = save_state(&mut target);
        for cut in 0..state.len() {
            let err = load_state(&mut target, &state[..cut]).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "state cut at {cut}: {err}"
            );
        }
        let after = save_state(&mut target);
        assert_eq!(after, before, "a truncated load changed the network");
    }

    #[test]
    fn hostile_tensor_count_is_rejected_without_allocation() {
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let mut buf = STATE_MAGIC.to_vec();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = load_state(&mut net, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("implausible count"));
    }

    #[test]
    fn hostile_rank_is_rejected() {
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let mut buf = STATE_MAGIC.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes()); // one tensor
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd rank
        let err = load_state(&mut net, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("implausible count"));
    }

    #[test]
    fn overflowing_shape_is_rejected_without_allocation() {
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let mut buf = STATE_MAGIC.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes()); // one tensor
        buf.extend_from_slice(&2u64.to_le_bytes()); // rank 2
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = load_state(&mut net, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn huge_declared_payload_on_short_file_is_invalid_data() {
        // A shape claiming ~1 GiB of f32s backed by 8 actual bytes must
        // fail via the bounded read, not allocate the declared size.
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let mut buf = STATE_MAGIC.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes()); // rank 1
        buf.extend_from_slice(&(1u64 << 28).to_le_bytes()); // 2^28 elements
        buf.extend_from_slice(&[0u8; 8]); // only 8 payload bytes present
        let err = load_state(&mut net, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let mut buf = save_state(&mut net);
        buf.push(0xab);
        let err = load_state(&mut net, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing"));
    }

    /// A network whose inference behaviour depends on buffers as well as
    /// parameters (batch-norm running statistics).
    fn bn_net(seed: u64) -> Network {
        use crate::layers::{BatchNorm2d, Conv2d, QuantReLU};
        use crate::model::Sequential;
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(
            Sequential::new("bn-net")
                .with(Conv2d::new("c1", 1, 4, 3, 1, 1, 1, &mut rng))
                .with(BatchNorm2d::new("bn1", 4))
                .with(QuantReLU::new("r1", 6.0)),
        )
    }

    #[test]
    fn state_round_trip_restores_batchnorm_buffers() {
        let mut net = bn_net(7);
        // A few training passes move the running statistics off their
        // initial values and leave the parameters as they were.
        let x = Tensor::full(&[2, 1, 8, 8], 0.7);
        for _ in 0..3 {
            let _ = net.forward_train(&x);
        }
        let before = net.predict(&x);

        let buf = save_state(&mut net);

        // The same parameters without the running statistics: a fresh
        // net built with the same seed.
        let mut params_only = bn_net(7);
        assert_ne!(
            params_only.predict(&x).data(),
            before.data(),
            "parameters alone must miss the running statistics"
        );

        let mut full = bn_net(99);
        load_state(&mut full, buf.as_slice()).expect("load state");
        assert_eq!(full.predict(&x).data(), before.data());
    }

    /// Every network the pipeline builds (Micro's `tiny_cnn`, the Mini
    /// zoo) round-trips bit for bit after a training forward has moved
    /// its batch-norm statistics: Table I's delay sweep rolls each of
    /// them back this way.
    #[test]
    fn every_pipeline_network_round_trips_bit_for_bit() {
        type Build = fn(&mut StdRng) -> Network;
        let zoo: [(&str, Build); 5] = [
            ("tiny_cnn", |rng| models::tiny_cnn("micro", 3, 20, 10, rng)),
            ("lenet5", |rng| models::lenet5(3, 20, 10, rng)),
            ("resnet", |rng| {
                models::resnet("resnet20-mini", 3, 20, 1, 8, rng)
            }),
            ("resnet50_mini", |rng| {
                models::resnet50_mini(3, 10, 1, 8, rng)
            }),
            ("efficientnet_lite_mini", |rng| {
                models::efficientnet_lite_mini(3, 10, rng)
            }),
        ];
        let batch = |offset: usize| {
            let pixels = (0..2 * 3 * 20 * 20).map(|i| ((i * 7 + offset) % 13) as f32 * 0.08);
            Tensor::from_vec(&[2, 3, 20, 20], pixels.collect())
        };
        let buffers = |net: &mut Network| {
            let mut all = Vec::new();
            net.visit_buffers(&mut |b| all.extend_from_slice(b));
            all
        };
        let (x, other) = (batch(0), batch(5));
        for (name, build) in zoo {
            let mut net = build(&mut StdRng::seed_from_u64(3));
            let _ = net.forward_train(&x);
            let before = net.predict(&x);
            let state = save_state(&mut net);
            let saved_buffers = buffers(&mut net);

            let _ = net.forward_train(&other);
            net.visit_params(&mut |p| {
                for v in p.value.data_mut() {
                    *v += 0.25;
                }
            });
            if !saved_buffers.is_empty() {
                assert_ne!(
                    buffers(&mut net),
                    saved_buffers,
                    "{name}: statistics did not move"
                );
            }
            assert_ne!(net.predict(&x).data(), before.data(), "{name}");

            load_state(&mut net, &state).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(save_state(&mut net), state, "{name}: state changed");
            assert_eq!(net.predict(&x).data(), before.data(), "{name}");
        }
    }

    #[test]
    fn state_buffer_length_mismatch_is_rejected() {
        let mut a = bn_net(1);
        let mut buf = save_state(&mut a);
        use crate::layers::{BatchNorm2d, Conv2d};
        use crate::model::Sequential;
        let mut rng = StdRng::seed_from_u64(2);
        // Same parameter shapes in conv, different batch-norm width.
        let mut b = Network::new(
            Sequential::new("other")
                .with(Conv2d::new("c1", 1, 4, 3, 1, 1, 1, &mut rng))
                .with(BatchNorm2d::new("bn1", 4)),
        );
        // Truncate the last buffer: parameter section intact, buffer
        // section short.
        buf.truncate(buf.len() - 4);
        let err = load_state(&mut b, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn state_rejects_weights_magic() {
        // A valid state body behind the retired parameters-only magic.
        let mut net = bn_net(3);
        let mut buf = save_state(&mut net);
        buf[..8].copy_from_slice(b"PPNNWTS1");
        let err = load_state(&mut net, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn sample_captures() -> Vec<GemmCapture> {
        vec![
            GemmCapture {
                layer: "conv1".into(),
                weight_codes: vec![1, -2, 3, -4, 5, -6],
                act_codes: vec![9, 8, 7, 6, 5, 4],
                m: 2,
                k: 3,
                n: 2,
            },
            GemmCapture {
                layer: "fc".into(),
                weight_codes: vec![-128_i8, 127, 0],
                act_codes: vec![255, 0, 1],
                m: 1,
                k: 3,
                n: 1,
            },
        ]
    }

    #[test]
    fn captures_round_trip_bit_exactly() {
        let captures = sample_captures();
        let mut buf = Vec::new();
        write_captures(&captures, &mut buf);
        let mut r = Reader::new(&buf);
        let back = read_captures(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        assert_eq!(back, captures);
        // Empty traces round-trip too.
        let mut empty = Vec::new();
        write_captures(&[], &mut empty);
        let mut r = Reader::new(&empty);
        assert!(read_captures(&mut r).expect("decode empty").is_empty());
    }

    #[test]
    fn captures_geometry_mismatch_is_rejected() {
        let mut captures = sample_captures();
        captures[0].m = 3; // 3×3 declared, 6 weight codes present
        let mut buf = Vec::new();
        write_captures(&captures, &mut buf);
        let mut r = Reader::new(&buf);
        let err = read_captures(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("geometry"));
    }

    #[test]
    fn captures_hostile_count_is_rejected() {
        let mut buf = Vec::new();
        wire::put_usize(&mut buf, u32::MAX as usize); // absurd capture count
        let mut r = Reader::new(&buf);
        let err = read_captures(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
