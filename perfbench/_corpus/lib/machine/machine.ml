type t = {
  name : string;
  act : int -> int Bn_util.Dist.t;
  complexity : int -> float;
  randomized : bool;
}

let deterministic name ?(complexity = fun _ -> 1.0) f =
  { name; act = (fun input -> Bn_util.Dist.return (f input)); complexity; randomized = false }

let randomizing name ?(complexity = fun _ -> 2.0) f =
  { name; act = f; complexity; randomized = true }

let constant name ?complexity a = deterministic name ?complexity (fun _ -> a)

let pp ppf m =
  Format.fprintf ppf "%s%s" m.name (if m.randomized then " (randomized)" else "")
