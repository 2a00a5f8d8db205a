type assumptions = {
  utilities_known : bool;
  punishment : bool;
  broadcast : bool;
  crypto : bool;
  pki : bool;
}

let no_assumptions =
  { utilities_known = false; punishment = false; broadcast = false; crypto = false; pki = false }

let all_assumptions =
  { utilities_known = true; punishment = true; broadcast = true; crypto = true; pki = true }

type running_time = Bounded | Bounded_expected | Finite_expected | Utility_dependent

type verdict =
  | Implementable of {
      exact : bool;
      running_time : running_time;
      needs : string list;
      bullet : int;
    }
  | Impossible of { reason : string; bullet : int }

let bullet_text = function
  | 1 -> "n > 3k+3t: exact implementation, bounded time, no utility knowledge"
  | 2 -> "n <= 3k+3t: needs utilities; even then needs a (k+t)-punishment strategy and unbounded time"
  | 3 -> "n > 2k+3t: exact implementation given punishment strategy and known utilities, finite expected time"
  | 4 -> "n <= 2k+3t: not implementable in general, even with punishment and known utilities"
  | 5 -> "n > 2k+2t + broadcast: eps-implementation, bounded expected time"
  | 6 -> "n <= 2k+2t: no eps-implementation even with broadcast; with crypto, time depends on utilities and eps"
  | 7 -> "n > k+3t + crypto: eps-implementation (time utility-dependent if n <= 2k+2t)"
  | 8 -> "n <= k+3t: no eps-implementation even with crypto and punishment"
  | 9 -> "n > k+t + crypto + PKI: eps-implementation"
  | b -> invalid_arg (Printf.sprintf "Feasibility.bullet_text: %d" b)

(* The cascade prefers exact implementations (bullets 1, 3) and falls back
   to the ε-implementations (bullets 5, 7, 9) when the exact routes lack
   their assumptions; the blocking impossibility reported is the tightest
   one for the regime. *)
let classify ~n ~k ~t a =
  if n < 1 || k < 1 || t < 0 then invalid_arg "Feasibility.classify: need n >= 1, k >= 1, t >= 0";
  let crypto = a.crypto || a.pki in
  if n > (3 * k) + (3 * t) then
    Implementable { exact = true; running_time = Bounded; needs = []; bullet = 1 }
  else if n > (2 * k) + (3 * t) && a.utilities_known && a.punishment then
    Implementable
      {
        exact = true;
        running_time = Finite_expected;
        needs = [ "known utilities"; "(k+t)-punishment" ];
        bullet = 3;
      }
  else if n > (2 * k) + (2 * t) && a.broadcast then
    Implementable
      {
        exact = false;
        running_time = Bounded_expected;
        needs = [ "broadcast channels" ];
        bullet = 5;
      }
  else if crypto && n > k + (3 * t) then
    (* Bullet 7; the expected running time is utility/ε-dependent exactly
       when n <= 2k+2t (bullet 6's second half). *)
    Implementable
      {
        exact = false;
        running_time = (if n > (2 * k) + (2 * t) then Bounded_expected else Utility_dependent);
        needs = [ "cryptography" ];
        bullet = 7;
      }
  else if a.pki && n > k + t then
    Implementable
      {
        exact = false;
        running_time = Utility_dependent;
        needs = [ "cryptography"; "PKI" ];
        bullet = 9;
      }
  else if n > (2 * k) + (3 * t) then
    Impossible
      {
        reason = "n <= 3k+3t: requires knowledge of utilities and a (k+t)-punishment strategy";
        bullet = 2;
      }
  else if n > (2 * k) + (2 * t) then
    Impossible
      { reason = "n <= 2k+3t: exact implementation impossible in general"; bullet = 4 }
  else if crypto then
    Impossible
      {
        reason =
          (if n <= k + t then "n <= k+t: too few honest-and-rational players"
           else "n <= k+3t: not eps-implementable even with cryptography and punishment");
        bullet = 8;
      }
  else
    Impossible
      { reason = "n <= 2k+2t: not eps-implementable, even with broadcast channels"; bullet = 6 }

(* {1 Asynchronous cheap talk (Abraham–Dolev–Geffner–Halpern)} *)

type async_verdict =
  | Async_implementable
  | Async_breaks_under_faults
  | Async_breaks_fault_free

let classify_async ~n ~k ~t =
  if n < 1 || k < 1 || t < 0 then
    invalid_arg "Feasibility.classify_async: need n >= 1, k >= 1, t >= 0";
  let f = k + t in
  if n > 4 * f then Async_implementable
  else if n > 3 * f then Async_breaks_under_faults
  else Async_breaks_fault_free

let describe_async = function
  | Async_implementable -> "async-implementable (n > 4(k+t))"
  | Async_breaks_under_faults ->
    "async-impossible (3(k+t) < n <= 4(k+t): k+t silent parties stall decoding)"
  | Async_breaks_fault_free -> "async-impossible (n <= 3(k+t): stalls even fault-free)"

let describe = function
  | Implementable { exact; running_time; needs; bullet } ->
    let rt =
      match running_time with
      | Bounded -> "bounded"
      | Bounded_expected -> "bounded-expected"
      | Finite_expected -> "finite-expected"
      | Utility_dependent -> "utility-dependent"
    in
    Printf.sprintf "%s (%s%s) [b%d]"
      (if exact then "implementable" else "eps-implementable")
      rt
      (if needs = [] then "" else "; needs " ^ String.concat "+" needs)
      bullet
  | Impossible { reason = _; bullet } -> Printf.sprintf "impossible [b%d]" bullet
