type t = Fixed of int array | Adaptive of (int -> Assignment.t -> int)

let fixed a = Fixed a
let adaptive f = Adaptive f

let next t step assignment =
  match t with
  | Fixed a ->
      if step < 0 || step >= Array.length a then
        invalid_arg "Trace.next: step out of bounds";
      a.(step)
  | Adaptive f -> f step assignment

let validate ~n t ~steps =
  match t with
  | Adaptive _ -> ()
  | Fixed a ->
      if Array.length a < steps then
        invalid_arg "Trace.validate: fixed trace shorter than steps";
      Array.iter
        (fun e ->
          if e < 0 || e >= n then
            invalid_arg "Trace.validate: edge index out of range")
        a
