type t = {
  name : string;
  augmentation : float;
  assignment : unit -> Assignment.t;
  serve : int -> unit;
  journal : Assignment.journal option;
  snapshot : (unit -> string) option;
  restore : (string -> unit) option;
  batch : (int array -> int -> unit) option;
}

let make ~name ~augmentation ~assignment ~serve =
  {
    name;
    augmentation;
    assignment;
    serve;
    journal = Some (Assignment.journal (assignment ()));
    snapshot = None;
    restore = None;
    batch = None;
  }

let with_state ~snapshot ~restore t =
  { t with snapshot = Some snapshot; restore = Some restore }

let with_batch batch t = { t with batch = Some batch }
