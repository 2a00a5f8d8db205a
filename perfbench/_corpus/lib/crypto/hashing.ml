let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let avalanche z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  avalanche !h

let hash_ints ints =
  hash (String.concat "," (List.map string_of_int ints))

module Commit = struct
  type t = int64

  let commit ~value ~nonce = hash (Printf.sprintf "commit|%d|%d" value nonce)
  let verify c ~value ~nonce = Int64.equal c (commit ~value ~nonce)
end

module Pki = struct
  type t = { secrets : int64 array }
  type signature = int64

  let create rng ~n = { secrets = Array.init n (fun _ -> Bn_util.Prng.bits64 rng) }

  let sign t ~signer ~msg =
    hash (Printf.sprintf "sig|%Ld|%s" t.secrets.(signer) msg)

  let verify t ~signer ~msg s = Int64.equal s (sign t ~signer ~msg)

  let forge_attempt rng = Bn_util.Prng.bits64 rng
end
