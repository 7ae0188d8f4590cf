//! Quickstart — the paper's Listing 2, end to end.
//!
//! Creates a WebDriver-automated browser session, hides its fingerprint
//! with the spoofing extension, then drives a form interaction through
//! `HlisaActionChains` and shows what the page observed.
//!
//! Run with: `cargo run --example quickstart`

use hlisa::HlisaActionChains;
use hlisa_browser::dom::standard_test_page;
use hlisa_browser::{Browser, BrowserConfig};
use hlisa_spoof::SpoofingExtension;
use hlisa_webdriver::{By, Session};

fn main() {
    // A Selenium/OpenWPM-style automated Firefox.
    let browser = Browser::open(
        BrowserConfig::webdriver(),
        standard_test_page("https://example.test/", 3_000.0),
    );
    let mut driver = Session::new(browser);

    // Step 0 — hide the fingerprint (§3): without this, the page can tell
    // it is talking to a bot before any interaction happens.
    println!(
        "navigator.webdriver before spoofing: {:?}",
        driver.execute_script_get("navigator.webdriver").unwrap()
    );
    SpoofingExtension::paper_default()
        .inject(driver.browser.world_mut())
        .expect("extension injects");
    println!(
        "navigator.webdriver after spoofing:  {:?}",
        driver.execute_script_get("navigator.webdriver").unwrap()
    );

    // Step 1 — Listing 2: two changed lines turn Selenium code into HLISA.
    let element = driver
        .find_element(By::Id("text_area".into()))
        .expect("element exists");
    let ac = HlisaActionChains::new(7)
        .move_to_element(element)
        .send_keys_to_element(element, "Text..");
    ac.perform(&mut driver).expect("chain performs");

    // Step 2 — what did the page observe?
    let rec = &driver.browser.recorder;
    println!();
    println!("typed text:        {:?}", driver.element_text(element));
    println!("events dispatched: {}", rec.events().len());
    println!("cursor samples:    {}", rec.cursor_trace().len());
    let clicks = rec.clicks();
    println!(
        "click dwell:       {:.0} ms (humans: 20-250 ms; Selenium: 0 ms)",
        clicks[0].dwell_ms
    );
    let strokes = rec.keystrokes();
    let mean_dwell: f64 = strokes.iter().map(|k| k.dwell_ms).sum::<f64>() / strokes.len() as f64;
    println!("mean key dwell:    {mean_dwell:.0} ms");
    println!(
        "elapsed (simulated): {:.1} s",
        driver.browser.now_ms() / 1000.0
    );
}
