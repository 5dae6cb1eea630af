//! Policy analysis toolbox: what a data owner should check before
//! publishing under a policy.
//!
//! Uses `mabe-policy`'s analysis module to normalize a formula, list the
//! exact attribute combinations that grant access, find pivot attributes
//! (whose revocation always cuts access), and inspect the LSSS matrix
//! the ciphertext will embed.
//!
//! Run with: `cargo run --example policy_toolbox`

use mabe::math::Fr;
use mabe::policy::analysis::{minimal_authorized_sets, normalize, pivot_attributes};
use mabe::policy::{parse, AccessStructure};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let src = "(Doctor@Hospital AND 1 of (Researcher@Trial)) \
               OR 2 of (Nurse@Hospital, Pharmacist@Hospital, Auditor@Regulator)";
    println!("input policy:\n  {src}\n");

    let policy = parse(src)?;
    let normalized = normalize(&policy);
    println!("normalized:\n  {normalized}\n");

    println!("minimal authorized sets (who exactly can decrypt):");
    for set in minimal_authorized_sets(&normalized)? {
        let attrs: Vec<String> = set.iter().map(|a| a.to_string()).collect();
        println!("  {{ {} }}", attrs.join(", "));
    }

    let pivots = pivot_attributes(&normalized)?;
    if pivots.is_empty() {
        println!("\nno pivot attributes: no single revocation cuts every access path");
    } else {
        for p in &pivots {
            println!("\npivot attribute: revoking {p} removes ALL access paths");
        }
    }

    // The LSSS the ciphertext embeds.
    let access = AccessStructure::from_policy(&normalized)?;
    println!(
        "\nLSSS share matrix: {} rows x {} columns (ciphertext will carry {} G-elements)",
        access.rows(),
        access.width(),
        access.rows() + 1,
    );
    for (row, attr) in access.matrix().iter().zip(access.rho()) {
        let rendered: Vec<String> = row
            .iter()
            .map(|fe| {
                // The construction emits AND-chain entries of ±1 (−1 is
                // stored as r − 1) and small Vandermonde powers; render
                // both as small signed integers, anything else as `*`.
                let small = |x: &Fr| {
                    let u = x.to_uint();
                    (u.limbs[1..].iter().all(|&l| l == 0) && u.limbs[0] < 1 << 16)
                        .then_some(u.limbs[0] as i64)
                };
                match small(fe).or_else(|| small(&fe.neg()).map(|k| -k)) {
                    Some(k) => format!("{k:>3}"),
                    None => "  *".to_string(),
                }
            })
            .collect();
        println!("  [{}]  <- {attr}", rendered.join(" "));
    }

    println!(
        "\ninvolved authorities (decryptor needs a key from each): {}",
        normalized
            .authorities()
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}
