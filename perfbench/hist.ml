(* Log-linear latency histogram: values below 64 ns get a bucket each,
   every octave above is split into 64 linear sub-buckets, so a quantile
   is within 1/64 of the true value while recording stays O(1) and
   allocation-free however many calls a run makes. *)

let sub_bits = 6
let sub = 1 lsl sub_bits
let buckets = sub + ((63 - sub_bits) * sub)

type t = { counts : int array; mutable total : int }

let create () = { counts = Array.make buckets 0; total = 0 }

let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1)

let index v =
  if v < sub then max v 0
  else
    let e = msb v 0 in
    sub + ((e - sub_bits) * sub) + ((v lsr (e - sub_bits)) - sub)

(* midpoint of the bucket *)
let value i =
  if i < sub then float_of_int i
  else
    let e = ((i - sub) / sub) + sub_bits and s = (i - sub) mod sub in
    let width = 1 lsl (e - sub_bits) in
    float_of_int ((sub + s) * width) +. (float_of_int width /. 2.)

let record t v =
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let count t = t.total

let merge ~into t =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.total <- into.total + t.total

let quantile t q =
  if t.total = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
    let acc = ref 0 and i = ref 0 in
    while !acc + t.counts.(!i) < rank do
      acc := !acc + t.counts.(!i);
      incr i
    done;
    value !i
  end

(* The highest of p99.9/p99/p90/p50 with at least ten samples beyond it
   (p50 when even that has fewer), as (percentile, value). *)
let tail t =
  let n = float_of_int t.total in
  let p =
    match List.find_opt (fun p -> n *. (1. -. p) >= 10.) [ 0.999; 0.99; 0.9 ] with
    | Some p -> p
    | None -> 0.5
  in
  (100. *. p, quantile t p)
