//! Golden generator digests.
//!
//! Pins the exact output of [`generate`] — RNG draw sequence, gate order,
//! section metadata and reference solution — on five devices of different
//! shape. Every stored corpus, cached result and golden SWAP stream is keyed
//! by these bytes (the store's content hashes are hashes of the emitted
//! QASM), so a generator change that moves a single gate silently
//! invalidates all of them; here it fails loudly instead.
//!
//! Each pinned instance records four content hashes: the logical circuit's
//! QASM, the reference solution's QASM, the serialized sections and the
//! reference initial mapping. A second, wider sweep folds 144
//! configurations per device into one digest.
//!
//! A change that *intentionally* alters generator output must regenerate the
//! constants below and say so: every exported corpus then stops matching its
//! regeneration and has to be re-exported.

use qubikos::{content_hash, generate, GeneratorConfig, QubikosCircuit};
use qubikos_arch::{Architecture, DeviceKind};
use qubikos_circuit::to_qasm;

/// `(designed SWAPs, two-qubit gates, seed)` of a pinned instance and its
/// expected [`digests`].
type Pinned<'a> = ((usize, usize, u64), [&'a str; 4]);

/// `[circuit QASM, reference-solution QASM, sections JSON, reference mapping]`.
fn digests(bench: &QubikosCircuit) -> [String; 4] {
    [
        content_hash(&to_qasm(bench.circuit())),
        content_hash(&to_qasm(bench.reference_solution())),
        content_hash(&serde_json::to_string(bench.sections()).expect("sections serialize")),
        content_hash(&format!("{:?}", bench.reference_mapping().as_slice())),
    ]
}

/// Checks `(designed SWAPs, two-qubit gates, seed) → digests` on `device`,
/// then the device's 144-configuration sweep digest.
fn check_device(device: DeviceKind, golden: &[Pinned<'_>], golden_sweep: &str) {
    let arch = device.build();
    for &((swaps, gates, seed), expected) in golden {
        let config = GeneratorConfig::new(swaps, gates).with_seed(seed);
        let bench = generate(&arch, &config).expect("generates");
        assert_eq!(
            digests(&bench),
            expected.map(String::from),
            "{}: generator output changed for swaps {swaps}, gates {gates}, seed {seed}",
            device.name()
        );
    }
    assert_eq!(
        sweep_digest(&arch),
        golden_sweep,
        "{}: generator output changed somewhere in the 144-configuration sweep",
        device.name()
    );
}

/// One digest over the instances of 144 configurations: designed SWAPs 1–6,
/// 10/40/100 two-qubit gates, seeds 0–7.
fn sweep_digest(arch: &Architecture) -> String {
    let mut text = String::new();
    for swaps in 1..=6 {
        for gates in [10, 40, 100] {
            for seed in 0..8 {
                let config = GeneratorConfig::new(swaps, gates).with_seed(seed);
                let bench = generate(arch, &config).expect("generates");
                for digest in digests(&bench) {
                    text.push_str(&digest);
                }
                text.push('\n');
            }
        }
    }
    content_hash(&text)
}

#[test]
fn golden_generator_output_on_aspen4() {
    check_device(
        DeviceKind::Aspen4,
        &[
            (
                (1, 20, 3),
                [
                    "6f2c39e475e23015eedcc527f4e1767c",
                    "687e4fa839e30985786138aeb8cf2a84",
                    "a38f6c27b92bbec6bc180ddc0d337bd8",
                    "4bfb56cd68164eda309151d3466ef3ed",
                ],
            ),
            (
                (2, 50, 11),
                [
                    "80f74fd51f4141ce3ccf8a958b24644b",
                    "a42cc23d2eda4a1c5f4cfc0aa5661eec",
                    "2b054275efd2f6502841bf4f5f18dd2e",
                    "0b02636322b1ab70ea24edd9235f7f79",
                ],
            ),
            (
                (4, 120, 2025),
                [
                    "6a38f9f99f08fa9e52a8b65be3474319",
                    "f6ad82b4ac034e85f2e45950727ca739",
                    "80ed1b95ec759093ce7f2326bb0dfc5f",
                    "b2a76c3769898f68b55e658d108b74e7",
                ],
            ),
        ],
        "c9c022be40021ae6aef54ea20d3779d5",
    );
}

#[test]
fn golden_generator_output_on_grid3x3() {
    check_device(
        DeviceKind::Grid3x3,
        &[
            (
                (1, 20, 3),
                [
                    "9e6917427df6c475ae1878b211ae8be1",
                    "c05f80ea7bfb9ab67bbf1239b39444eb",
                    "86e1b118508802f906f2de4487ecd290",
                    "ef72ae410e23659bb4be0f861695cce9",
                ],
            ),
            (
                (2, 50, 11),
                [
                    "3eaca2ccdde8c080ac83ea1c7d348b07",
                    "f63c9f549c09ecc9da1eef9fa47ac413",
                    "31da3e378ac403d57423310525edcdc8",
                    "f0bede4cfd31bca24a656a6c702dd27d",
                ],
            ),
            (
                (4, 120, 2025),
                [
                    "3b93879834e94b58ce6d38a39affb175",
                    "13ecd00c3c6b6d1e90e950ee80009b1a",
                    "dd6d806222bf1208cd9458115e50e591",
                    "338fff2fbde0212a455f02061481f613",
                ],
            ),
        ],
        "124cb981cc5f835c79e1b3936d254ff4",
    );
}

#[test]
fn golden_generator_output_on_rochester53() {
    check_device(
        DeviceKind::Rochester53,
        &[
            (
                (1, 20, 3),
                [
                    "a836900b2be80b1dc128542229d3301e",
                    "84f3aaa8cce5dbc53eee55ea3b4cfa4f",
                    "ed2e36235f460f8369797505837bf715",
                    "219f6f7246a81a8fc7515e2b23621576",
                ],
            ),
            (
                (2, 50, 11),
                [
                    "f4d5501a75cd70f4c2d96ec02fd0d3df",
                    "efc693fa5e1db218ab1123132ea1d0bf",
                    "3ada556bb677f571855e1b46bb6296aa",
                    "c7b1e2e10f2f73968b08388eecdee494",
                ],
            ),
            (
                (4, 120, 2025),
                [
                    "95f6b8ecfa94f711222ff8ba49998daa",
                    "cdcd257fa71ed491a7192dcdef3160e4",
                    "63574b24fe1af0f751ad0b2456f3b524",
                    "95e9b8298af047f1b15a3fe2c581cd22",
                ],
            ),
        ],
        "2a4bd9a4e03513d105089faba82c57f7",
    );
}

#[test]
fn golden_generator_output_on_sycamore54() {
    check_device(
        DeviceKind::Sycamore54,
        &[
            (
                (1, 20, 3),
                [
                    "1f2fe44d4a74dc8da0b8f0d29ebcbe50",
                    "bc204dfc87e6a2279c4eac4602f9a3ad",
                    "3cb843675f0a76b9d4f45ca0207ee068",
                    "01d193958d3de9a7b5c4819afca96d02",
                ],
            ),
            (
                (2, 50, 11),
                [
                    "d66f5dbd6614c6b1260110d621eb4d73",
                    "a0a3897402eb0a14a341ec6390499f23",
                    "29097f71cb2e7e6853e128c97c5e1941",
                    "f8986e45dae4318aa830a8f86ef97a38",
                ],
            ),
            (
                (4, 120, 2025),
                [
                    "0d8dd935474e9a0102713108afefa33b",
                    "8b14c853a363d9bbed3bb6841fff2a2b",
                    "9182e00d2c7ea44298a3046dc964beaa",
                    "2e274f2dcdcb30239da54158ed539942",
                ],
            ),
        ],
        "1251ecd4bb9a27deb037367cba18f718",
    );
}

#[test]
fn golden_generator_output_on_eagle127() {
    check_device(
        DeviceKind::Eagle127,
        &[
            (
                (1, 20, 3),
                [
                    "894a74a45b8c6afe75c08dc6848e761c",
                    "af020be73250f580ff3aa19de036bb05",
                    "312ea88ba468eddf3e47226fe032608d",
                    "172434e355344d026d0d91926ef19b75",
                ],
            ),
            (
                (2, 50, 11),
                [
                    "61e4867502f45977bb1228f52eb761a9",
                    "b63243a0efe03c694bf5cf73b7a82590",
                    "06ab9d783e6c54cc57799f1fca3b90d7",
                    "7d73d39fdc4af0443533ea61b220e8dd",
                ],
            ),
            (
                (4, 120, 2025),
                [
                    "9cf3ea373f272630c42f824429ac3b28",
                    "6ed4fdf92d29c8b7096ea8350cfeec01",
                    "87698f5dacaf9218e068ed3bc3df55f8",
                    "f811c9502bb1d83efd7d6e3bd40b7a1b",
                ],
            ),
        ],
        "73d857d538d8b2a288d8e533a05a9e59",
    );
}
