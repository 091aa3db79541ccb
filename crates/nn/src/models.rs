//! Model zoo: the four paper topologies plus a tiny CNN for tests.
//!
//! LeNet-5 follows the classic topology. ResNet-20 is the standard
//! CIFAR ResNet. "ResNet-50-mini" keeps ResNet-50's bottleneck block
//! structure at reduced depth/width, and "EfficientNet-Lite-mini" keeps
//! EfficientNet-Lite's MBConv (expand → depthwise → project, ReLU6, no
//! squeeze-excite) structure at reduced scale — full-size training is
//! compute-gated on CPU.
//!
//! All builders set the first convolution's capture range to 1.0
//! (images live in `[0, 1]`); every other conv consumes ReLU6 outputs
//! (range 6.0, the default).

use crate::layers::{BatchNorm2d, Conv2d, Dense, Flatten, GlobalAvgPool, MaxPool2d, QuantReLU};
use crate::model::{Network, Residual, Sequential};
use rand::rngs::StdRng;

fn conv(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    input_range: f32,
    rng: &mut StdRng,
) -> Conv2d {
    let mut c = Conv2d::new(name, in_ch, out_ch, k, stride, pad, groups, rng);
    c.input_range = input_range;
    c
}

/// A small two-conv CNN for fast tests (input `size × size`, must be a
/// multiple of 4).
///
/// # Panics
///
/// Panics if `size` is not a multiple of 4.
#[must_use]
pub fn tiny_cnn(
    name: &str,
    channels: usize,
    size: usize,
    classes: usize,
    rng: &mut StdRng,
) -> Network {
    assert_eq!(size % 4, 0, "tiny_cnn needs size divisible by 4");
    let flat = 16 * (size / 4) * (size / 4);
    let root = Sequential::new(name)
        .with(conv("conv1", channels, 8, 3, 1, 1, 1, 1.0, rng))
        .with(QuantReLU::new("relu1", 6.0))
        .with(MaxPool2d::new("pool1", 2, 2))
        .with(conv("conv2", 8, 16, 3, 1, 1, 1, 6.0, rng))
        .with(QuantReLU::new("relu2", 6.0))
        .with(MaxPool2d::new("pool2", 2, 2))
        .with(Flatten::new("flatten"))
        .with(Dense::new("fc", flat, classes, rng));
    Network::new(root)
}

/// LeNet-5 for `size × size` inputs (classic 5×5 convs, two pools,
/// three dense layers).
///
/// # Panics
///
/// Panics if the input is too small for two 5×5 convolutions and pools.
#[must_use]
pub fn lenet5(channels: usize, size: usize, classes: usize, rng: &mut StdRng) -> Network {
    let s1 = size - 4; // conv1 5x5, pad 0
    assert!(s1 >= 2, "input too small for LeNet-5");
    let p1 = s1 / 2;
    let s2 = p1 - 4; // conv2 5x5, pad 0
    assert!(s2 >= 2, "input too small for LeNet-5");
    let p2 = s2 / 2;
    let flat = 16 * p2 * p2;
    let root = Sequential::new("lenet5")
        .with(conv("conv1", channels, 6, 5, 1, 0, 1, 1.0, rng))
        .with(QuantReLU::new("relu1", 6.0))
        .with(MaxPool2d::new("pool1", 2, 2))
        .with(conv("conv2", 6, 16, 5, 1, 0, 1, 6.0, rng))
        .with(QuantReLU::new("relu2", 6.0))
        .with(MaxPool2d::new("pool2", 2, 2))
        .with(Flatten::new("flatten"))
        .with(Dense::new("fc1", flat, 120, rng))
        .with(QuantReLU::new("relu3", 6.0))
        .with(Dense::new("fc2", 120, 84, rng))
        .with(QuantReLU::new("relu4", 6.0))
        .with(Dense::new("fc3", 84, classes, rng));
    Network::new(root)
}

/// One basic residual block (two 3×3 convs + BN), with a projecting
/// shortcut when shape changes.
fn basic_block(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    stride: usize,
    rng: &mut StdRng,
) -> (Residual, QuantReLU) {
    let main = Sequential::new(format!("{name}.main"))
        .with(conv(
            &format!("{name}.conv1"),
            in_ch,
            out_ch,
            3,
            stride,
            1,
            1,
            6.0,
            rng,
        ))
        .with(BatchNorm2d::new(format!("{name}.bn1"), out_ch))
        .with(QuantReLU::new(format!("{name}.relu1"), 6.0))
        .with(conv(
            &format!("{name}.conv2"),
            out_ch,
            out_ch,
            3,
            1,
            1,
            1,
            6.0,
            rng,
        ))
        .with(BatchNorm2d::new(format!("{name}.bn2"), out_ch));
    let res = if stride != 1 || in_ch != out_ch {
        let shortcut = Sequential::new(format!("{name}.short"))
            .with(conv(
                &format!("{name}.convs"),
                in_ch,
                out_ch,
                1,
                stride,
                0,
                1,
                6.0,
                rng,
            ))
            .with(BatchNorm2d::new(format!("{name}.bns"), out_ch));
        Residual::with_shortcut(name, main, shortcut)
    } else {
        Residual::new(name, main)
    };
    (res, QuantReLU::new(format!("{name}.relu2"), 6.0))
}

/// CIFAR-style ResNet with `blocks_per_stage` basic blocks in each of
/// three stages (ResNet-20 uses 3; the mini variant uses 1) and a base
/// width (16 for the paper-faithful model).
#[must_use]
pub fn resnet(
    name: &str,
    channels: usize,
    classes: usize,
    blocks_per_stage: usize,
    base_width: usize,
    rng: &mut StdRng,
) -> Network {
    let w = base_width;
    let mut root = Sequential::new(name)
        .with(conv("stem", channels, w, 3, 1, 1, 1, 1.0, rng))
        .with(BatchNorm2d::new("stem.bn", w))
        .with(QuantReLU::new("stem.relu", 6.0));
    let widths = [w, 2 * w, 4 * w];
    let mut in_ch = w;
    for (stage, &out_ch) in widths.iter().enumerate() {
        for block in 0..blocks_per_stage {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let (res, relu) = basic_block(&format!("s{stage}b{block}"), in_ch, out_ch, stride, rng);
            root.push(Box::new(res));
            root.push(Box::new(relu));
            in_ch = out_ch;
        }
    }
    let root = root
        .with(GlobalAvgPool::new("gap"))
        .with(Dense::new("fc", in_ch, classes, rng));
    Network::new(root)
}

/// ResNet-20 (3 basic blocks per stage, base width 16).
#[must_use]
pub fn resnet20(channels: usize, classes: usize, rng: &mut StdRng) -> Network {
    resnet("resnet20", channels, classes, 3, 16, rng)
}

/// One bottleneck block (1×1 reduce → 3×3 → 1×1 expand ×4), ResNet-50
/// style.
fn bottleneck_block(
    name: &str,
    in_ch: usize,
    mid_ch: usize,
    stride: usize,
    rng: &mut StdRng,
) -> (Residual, QuantReLU) {
    let out_ch = 4 * mid_ch;
    let main = Sequential::new(format!("{name}.main"))
        .with(conv(
            &format!("{name}.conv1"),
            in_ch,
            mid_ch,
            1,
            1,
            0,
            1,
            6.0,
            rng,
        ))
        .with(BatchNorm2d::new(format!("{name}.bn1"), mid_ch))
        .with(QuantReLU::new(format!("{name}.relu1"), 6.0))
        .with(conv(
            &format!("{name}.conv2"),
            mid_ch,
            mid_ch,
            3,
            stride,
            1,
            1,
            6.0,
            rng,
        ))
        .with(BatchNorm2d::new(format!("{name}.bn2"), mid_ch))
        .with(QuantReLU::new(format!("{name}.relu2"), 6.0))
        .with(conv(
            &format!("{name}.conv3"),
            mid_ch,
            out_ch,
            1,
            1,
            0,
            1,
            6.0,
            rng,
        ))
        .with(BatchNorm2d::new(format!("{name}.bn3"), out_ch));
    let res = if stride != 1 || in_ch != out_ch {
        let shortcut = Sequential::new(format!("{name}.short"))
            .with(conv(
                &format!("{name}.convs"),
                in_ch,
                out_ch,
                1,
                stride,
                0,
                1,
                6.0,
                rng,
            ))
            .with(BatchNorm2d::new(format!("{name}.bns"), out_ch));
        Residual::with_shortcut(name, main, shortcut)
    } else {
        Residual::new(name, main)
    };
    (res, QuantReLU::new(format!("{name}.relu3"), 6.0))
}

/// A bottleneck ResNet in the style of ResNet-50 but scaled down
/// (`blocks_per_stage` bottlenecks in each of three stages).
#[must_use]
pub fn resnet50_mini(
    channels: usize,
    classes: usize,
    blocks_per_stage: usize,
    base_width: usize,
    rng: &mut StdRng,
) -> Network {
    let w = base_width;
    let mut root = Sequential::new("resnet50_mini")
        .with(conv("stem", channels, w, 3, 1, 1, 1, 1.0, rng))
        .with(BatchNorm2d::new("stem.bn", w))
        .with(QuantReLU::new("stem.relu", 6.0));
    let mids = [w, 2 * w, 4 * w];
    let mut in_ch = w;
    for (stage, &mid) in mids.iter().enumerate() {
        for block in 0..blocks_per_stage {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let (res, relu) =
                bottleneck_block(&format!("s{stage}b{block}"), in_ch, mid, stride, rng);
            root.push(Box::new(res));
            root.push(Box::new(relu));
            in_ch = 4 * mid;
        }
    }
    let root = root
        .with(GlobalAvgPool::new("gap"))
        .with(Dense::new("fc", in_ch, classes, rng));
    Network::new(root)
}

/// One MBConv block (1×1 expand → 3×3 depthwise → 1×1 project, ReLU6,
/// no squeeze-excite — the "Lite" variant), residual when the shape is
/// preserved.
fn mbconv_block(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    expand: usize,
    stride: usize,
    rng: &mut StdRng,
) -> Box<dyn crate::layers::Layer> {
    let mid = in_ch * expand;
    let main = Sequential::new(format!("{name}.main"))
        .with(conv(
            &format!("{name}.expand"),
            in_ch,
            mid,
            1,
            1,
            0,
            1,
            6.0,
            rng,
        ))
        .with(BatchNorm2d::new(format!("{name}.bn1"), mid))
        .with(QuantReLU::new(format!("{name}.relu1"), 6.0))
        .with(conv(
            &format!("{name}.dw"),
            mid,
            mid,
            3,
            stride,
            1,
            mid,
            6.0,
            rng,
        ))
        .with(BatchNorm2d::new(format!("{name}.bn2"), mid))
        .with(QuantReLU::new(format!("{name}.relu2"), 6.0))
        .with(conv(
            &format!("{name}.project"),
            mid,
            out_ch,
            1,
            1,
            0,
            1,
            6.0,
            rng,
        ))
        .with(BatchNorm2d::new(format!("{name}.bn3"), out_ch));
    if stride == 1 && in_ch == out_ch {
        Box::new(Residual::new(name, main))
    } else {
        Box::new(main)
    }
}

/// An EfficientNet-B0-Lite-style network scaled down for CPU training:
/// stem conv, a sequence of MBConv stages, head conv, pooling and
/// classifier.
#[must_use]
pub fn efficientnet_lite_mini(channels: usize, classes: usize, rng: &mut StdRng) -> Network {
    let mut root = Sequential::new("efficientnet_lite_mini")
        .with(conv("stem", channels, 8, 3, 1, 1, 1, 1.0, rng))
        .with(BatchNorm2d::new("stem.bn", 8))
        .with(QuantReLU::new("stem.relu", 6.0));
    // (in, out, expand, stride) per block — a compressed B0-Lite plan.
    let plan = [
        (8usize, 8usize, 1usize, 1usize),
        (8, 16, 4, 2),
        (16, 16, 4, 1),
        (16, 24, 4, 2),
        (24, 24, 4, 1),
    ];
    for (i, &(ic, oc, e, s)) in plan.iter().enumerate() {
        root.push(mbconv_block(&format!("mb{i}"), ic, oc, e, s, rng));
    }
    let root = root
        .with(conv("head", 24, 48, 1, 1, 0, 1, 6.0, rng))
        .with(BatchNorm2d::new("head.bn", 48))
        .with(QuantReLU::new("head.relu", 6.0))
        .with(GlobalAvgPool::new("gap"))
        .with(Dense::new("fc", 48, classes, rng));
    Network::new(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn lenet5_shapes_work_on_32px() {
        let mut net = lenet5(3, 32, 10, &mut rng());
        let x = Tensor::zeros(&[2, 3, 32, 32]);
        let y = net.predict(&x);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn lenet5_shapes_work_on_16px() {
        let mut net = lenet5(1, 16, 10, &mut rng());
        let x = Tensor::zeros(&[1, 1, 16, 16]);
        let y = net.predict(&x);
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn resnet20_forward_and_backward() {
        let mut net = resnet("r-mini", 3, 10, 1, 8, &mut rng());
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = net.forward_train(&x);
        assert_eq!(y.shape(), &[2, 10]);
        let g = Tensor::full(&[2, 10], 0.1);
        let gx = net.backward(&g);
        assert_eq!(gx.shape(), &[2, 3, 16, 16]);
    }

    #[test]
    fn resnet20_paper_depth_builds() {
        let mut net = resnet20(3, 10, &mut rng());
        // 20 layers: count conv/dense params > resnet-mini
        assert!(net.param_count() > 250_000, "{}", net.param_count());
    }

    #[test]
    fn resnet50_mini_forward() {
        let mut net = resnet50_mini(3, 10, 1, 8, &mut rng());
        let x = Tensor::zeros(&[1, 3, 16, 16]);
        let y = net.predict(&x);
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn efficientnet_lite_mini_forward_and_backward() {
        let mut net = efficientnet_lite_mini(3, 10, &mut rng());
        let x = Tensor::zeros(&[1, 3, 16, 16]);
        let y = net.forward_train(&x);
        assert_eq!(y.shape(), &[1, 10]);
        let g = Tensor::full(&[1, 10], 0.1);
        let gx = net.backward(&g);
        assert_eq!(gx.shape(), &[1, 3, 16, 16]);
    }

    #[test]
    fn capture_covers_every_conv_and_dense() {
        let mut net = lenet5(1, 16, 4, &mut rng());
        let x = Tensor::full(&[1, 1, 16, 16], 0.5);
        let (_, captures) = net.forward_capture(&x);
        // LeNet-5: 2 convs + 3 dense = 5 GEMMs.
        assert_eq!(captures.len(), 5);
        assert!(captures.iter().all(|c| c.mac_ops() > 0));
    }
}
