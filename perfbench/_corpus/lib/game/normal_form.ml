(* Payoffs live on flat Bigarray float64 storage: one C-layout array per
   player, indexed row-major by profile. Unboxed reads keep the hot loops
   (deviation scans, support products, learning dynamics) allocation-free;
   [Flat] hands kernels the raw arrays. *)

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  acts : int array;
  player_names : string array;
  action_names : string array array;
  strides : int array;
  size : int;
  tabs : ba array; (* tabs.(i).{profile index} = player i's payoff *)
}

let index_of t profile =
  let idx = ref 0 in
  for i = 0 to t.n - 1 do
    idx := !idx + (profile.(i) * t.strides.(i))
  done;
  !idx

let make_strides acts =
  let n = Array.length acts in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * acts.(i + 1)
  done;
  strides

let create ?player_names ?action_names ~actions:acts u =
  let n = Array.length acts in
  if n = 0 then invalid_arg "Normal_form.create: no players";
  Array.iter (fun a -> if a <= 0 then invalid_arg "Normal_form.create: empty action set") acts;
  let player_names =
    match player_names with
    | Some names ->
      if Array.length names <> n then invalid_arg "Normal_form.create: player_names arity";
      names
    | None -> Array.init n (fun i -> Printf.sprintf "P%d" (i + 1))
  in
  let action_names =
    match action_names with
    | Some names ->
      if Array.length names <> n then invalid_arg "Normal_form.create: action_names arity";
      Array.iteri
        (fun i row ->
          if Array.length row <> acts.(i) then
            invalid_arg "Normal_form.create: action_names row arity")
        names;
      names
    | None -> Array.init n (fun i -> Array.init acts.(i) string_of_int)
  in
  let strides = make_strides acts in
  let size = Array.fold_left ( * ) 1 acts in
  let tabs =
    Array.init n (fun _ -> Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout size)
  in
  let t = { n; acts; player_names; action_names; strides; size; tabs } in
  Bn_util.Combin.iter_profiles acts (fun p ->
      let v = u p in
      if Array.length v <> n then invalid_arg "Normal_form.create: payoff arity";
      let idx = index_of t p in
      for i = 0 to n - 1 do
        Bigarray.Array1.set tabs.(i) idx v.(i)
      done);
  t

let of_bimatrix a b =
  let rows = Array.length a and cols = if Array.length a = 0 then 0 else Array.length a.(0) in
  if rows = 0 || cols = 0 then invalid_arg "Normal_form.of_bimatrix: empty matrix";
  let rectangular m r c =
    Array.length m = r && Array.for_all (fun row -> Array.length row = c) m
  in
  if not (rectangular a rows cols && rectangular b rows cols) then
    invalid_arg "Normal_form.of_bimatrix: shape mismatch";
  create ~actions:[| rows; cols |] (fun p -> [| a.(p.(0)).(p.(1)); b.(p.(0)).(p.(1)) |])

let n_players t = t.n
let num_actions t i = t.acts.(i)
let actions t = Array.copy t.acts
let player_name t i = t.player_names.(i)
let action_name t i a = t.action_names.(i).(a)

let payoff t profile i = Bigarray.Array1.get t.tabs.(i) (index_of t profile)

let payoff_vector t profile =
  let idx = index_of t profile in
  Array.init t.n (fun i -> Bigarray.Array1.get t.tabs.(i) idx)

let table_size t = t.size
let stride t i = t.strides.(i)
let payoff_by_index t idx i = Bigarray.Array1.get t.tabs.(i) idx
let payoff_row t idx = Array.init t.n (fun i -> Bigarray.Array1.get t.tabs.(i) idx)

let shift_index t idx ~player ~from_ ~to_ = idx + ((to_ - from_) * t.strides.(player))

let profile_of_index t idx =
  Array.init t.n (fun i -> idx / t.strides.(i) mod t.acts.(i))

let iter_profiles t f = Bn_util.Combin.iter_profiles t.acts f
let profiles t = Bn_util.Combin.profiles t.acts

let map_payoffs f t =
  create ~player_names:t.player_names ~action_names:t.action_names ~actions:t.acts
    (fun p -> f p (payoff_vector t p))

let is_zero_sum ?(eps = 1e-9) t =
  (* Same accumulation order as summing a payoff row left-to-right. *)
  let rec go idx =
    if idx >= t.size then true
    else begin
      let s = ref 0.0 in
      for i = 0 to t.n - 1 do
        s := !s +. Bigarray.Array1.unsafe_get t.tabs.(i) idx
      done;
      Float.abs !s <= eps && go (idx + 1)
    end
  in
  go 0

let is_symmetric_2p ?(eps = 1e-9) t =
  t.n = 2
  && t.acts.(0) = t.acts.(1)
  &&
  let m = t.acts.(0) in
  let rec go i j =
    if i >= m then true
    else if j >= m then go (i + 1) 0
    else
      Float.abs (payoff t [| i; j |] 0 -. payoff t [| j; i |] 1) <= eps && go i (j + 1)
  in
  go 0 0

module Flat = struct
  type nonrec ba = ba

  let table t i = t.tabs.(i)
end

let pp ppf t =
  if t.n = 2 then begin
    Format.fprintf ppf "@[<v>";
    for i = 0 to t.acts.(0) - 1 do
      for j = 0 to t.acts.(1) - 1 do
        let p = [| i; j |] in
        Format.fprintf ppf "(%s,%s)->(%g,%g)  " (action_name t 0 i) (action_name t 1 j)
          (payoff t p 0) (payoff t p 1)
      done;
      Format.fprintf ppf "@,"
    done;
    Format.fprintf ppf "@]"
  end
  else
    Format.fprintf ppf "<%d-player game, %s actions>" t.n
      (String.concat "x" (Array.to_list (Array.map string_of_int t.acts)))
