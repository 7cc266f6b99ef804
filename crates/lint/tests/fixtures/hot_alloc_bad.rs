//! Known-bad fixture: allocation-family calls inside `tick`, plus a
//! second allocating function `cold`; each is hot only when lint.toml's
//! `[alloc-hot-path]` lists it.

pub fn tick(buf: &mut Vec<f32>, xs: &[f32]) {
    let mut scratch = Vec::new();
    scratch.push(1.0);
    buf.extend_from_slice(&scratch);
    let copy = xs.to_vec();
    let label = format!("n={}", copy.len());
    drop(label);
    drop(copy);
}

pub fn cold(xs: &[f32]) -> Vec<f32> {
    xs.to_vec()
}
