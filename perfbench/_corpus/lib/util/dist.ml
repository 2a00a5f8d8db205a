type 'a t = ('a * float) list

(* Merge duplicate values (structural equality) and drop zero-mass points. *)
let merge pairs =
  let add acc (x, p) =
    if p < 0.0 then invalid_arg "Dist: negative weight"
    else if p = 0.0 then acc
    else
      match List.assoc_opt x acc with
      | None -> (x, p) :: acc
      | Some q -> (x, p +. q) :: List.remove_assoc x acc
  in
  List.rev (List.fold_left add [] pairs)

let of_list pairs =
  let merged = merge pairs in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 merged in
  if merged = [] || total <= 0.0 then invalid_arg "Dist.of_list: empty support";
  List.map (fun (x, p) -> (x, p /. total)) merged

let return x = [ (x, 1.0) ]

let uniform xs =
  match xs with
  | [] -> invalid_arg "Dist.uniform: empty list"
  | _ -> of_list (List.map (fun x -> (x, 1.0)) xs)

let bernoulli p =
  if p < 0.0 || p > 1.0 then invalid_arg "Dist.bernoulli: p out of range";
  if p = 0.0 then return false
  else if p = 1.0 then return true
  else [ (true, p); (false, 1.0 -. p) ]

let support d = List.map fst d

let mass d x = match List.assoc_opt x d with None -> 0.0 | Some p -> p

let to_list d = d

let map f d = of_list (List.map (fun (x, p) -> (f x, p)) d)

let bind d f =
  of_list
    (List.concat_map (fun (x, p) -> List.map (fun (y, q) -> (y, p *. q)) (f x)) d)

let product da db =
  List.concat_map (fun (a, p) -> List.map (fun (b, q) -> ((a, b), p *. q)) db) da

let product_list ds =
  let rec go = function
    | [] -> return []
    | d :: rest ->
      let tail = go rest in
      bind d (fun x -> map (fun xs -> x :: xs) tail)
  in
  go ds

let expect f d = List.fold_left (fun acc (x, p) -> acc +. (p *. f x)) 0.0 d

let sample rng d =
  let u = Prng.float rng in
  let rec go acc = function
    | [] -> fst (List.hd (List.rev d))
    | (x, p) :: rest -> if u < acc +. p then x else go (acc +. p) rest
  in
  go 0.0 d

let tv_distance da db =
  let keys = List.sort_uniq compare (support da @ support db) in
  0.5 *. List.fold_left (fun acc k -> acc +. Float.abs (mass da k -. mass db k)) 0.0 keys

let filter pred d =
  let kept = List.filter (fun (x, _) -> pred x) d in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 kept in
  if total <= 0.0 then None else Some (List.map (fun (x, p) -> (x, p /. total)) kept)

let is_uniform ?(eps = 1e-9) d =
  match d with
  | [] -> true
  | (_, p0) :: rest -> List.for_all (fun (_, p) -> Float.abs (p -. p0) <= eps) rest
