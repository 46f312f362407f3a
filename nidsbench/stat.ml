(* Order statistics over float samples. *)

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile samples q =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median samples = quantile samples 0.5

let max_of samples = Array.fold_left Float.max neg_infinity samples

let ratio num den = if den = 0.0 then 0.0 else num /. den
